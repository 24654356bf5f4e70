module cimrev/benchmark

go 1.22

require cimrev v0.0.0

replace cimrev => ../
