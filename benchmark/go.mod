// The benchmark is a module of its own so that it builds from its own
// directory; the import path stays under flux/ so it may use the
// product's internal packages, and the replace line points at the
// checkout it sits in.
module flux/benchmark

go 1.24

require flux v0.0.0

replace flux => ../
