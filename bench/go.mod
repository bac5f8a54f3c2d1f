// The benchmark is a module of its own so that it builds from its own
// directory and — not living under the mobilegossip/ import path — cannot
// import mobilegossip/internal/...: the compiler holds it to the public API.
module gossipbench

go 1.24

require mobilegossip v0.0.0

replace mobilegossip => ../
