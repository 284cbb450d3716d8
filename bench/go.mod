module rootreplay/bench

go 1.22

require rootreplay v0.0.0

replace rootreplay => ../
