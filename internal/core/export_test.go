package core

// Lockstep exports lockstep to the core_test package, whose tests import
// packages that import core.
var Lockstep = lockstep
