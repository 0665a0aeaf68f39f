module amber/benchmark

go 1.22

require amber v0.0.0

replace amber => ../
