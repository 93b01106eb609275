// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the engine's packages through the replace below.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
