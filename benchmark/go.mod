module m3/benchmark

go 1.22

require m3 v0.0.0

replace m3 => ../
