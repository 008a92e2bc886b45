module rcm/benchmark

go 1.23

require rcm v0.0.0

replace rcm => ../
