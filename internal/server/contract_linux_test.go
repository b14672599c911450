package server

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

func init() { redirectSegment = redirectSegmentToDevFull }

// redirectSegmentToDevFull finds this process's descriptor for the open
// WAL segment under dir in /proc/self/fd and duplicates /dev/full over
// it, so the log's next write fails with ENOSPC and nothing reaches the
// segment.
func redirectSegmentToDevFull(t *testing.T, dir string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || filepath.Dir(target) != dir || !strings.HasSuffix(target, ".seg") {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Skipf("no /dev/full: %v", err)
		}
		defer full.Close()
		if err := syscall.Dup3(int(full.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no open WAL segment under %s", dir)
}
