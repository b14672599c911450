package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweep collects the independent points of one experiment and runs them
// concurrently. A simulated machine is a single host thread and shares
// nothing with other machines, so points run on min(GOMAXPROCS, points)
// workers; results come back in the order the points were added, which
// makes every table identical to a sequential run's.
type sweep[T any] struct {
	points []func() (T, error)
	labels map[int]string
}

// label sets the progress message announced when the next added point
// starts.
func (s *sweep[T]) label(msg string) {
	if s.labels == nil {
		s.labels = map[int]string{}
	}
	s.labels[len(s.points)] = msg
}

func (s *sweep[T]) add(point func() (T, error)) { s.points = append(s.points, point) }

// run executes the points and returns their results in add order, or the
// error of the earliest point that failed. Workers claim points in add
// order and claim no more once one has failed.
func (s *sweep[T]) run(progress func(string)) ([]T, error) {
	out := make([]T, len(s.points))
	errs := make([]error, len(s.points))
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex // serializes progress
		wg     sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(s.points)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(s.points) {
					return
				}
				if msg, ok := s.labels[i]; ok && progress != nil {
					mu.Lock()
					progress(msg)
					mu.Unlock()
				}
				if out[i], errs[i] = s.points[i](); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
