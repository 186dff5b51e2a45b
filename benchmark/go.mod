// The benchmark is a module of its own so that it builds with its own
// build file; its path sits under xgftsim/ so that it may import the
// parent module's internal packages, which it finds through the
// replace line.
module xgftsim/benchmark

go 1.22

require xgftsim v0.0.0

replace xgftsim => ../
