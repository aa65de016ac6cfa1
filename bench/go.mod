module selsync/bench

go 1.24

require selsync v0.0.0

replace selsync => ../
