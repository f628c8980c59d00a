// The benchmark is a module of its own so that its directory can be
// copied onto any commit of the repository and measure it with
// identical code. It reaches the program under test through the
// replace directive below; nothing here is imported by the program.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
