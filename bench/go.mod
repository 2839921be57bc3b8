module sbgp/bench

go 1.24

require sbgp v0.0.0

replace sbgp => ../
