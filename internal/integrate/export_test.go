package integrate

// NekWindow exposes nekWindow to the external benchmarks.
var NekWindow = nekWindow
