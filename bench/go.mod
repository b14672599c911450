module pq/bench

go 1.24

require pq v0.0.0

replace pq => ../
