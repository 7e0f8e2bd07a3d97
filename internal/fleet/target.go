package fleet

import "repro/internal/hafi"

// Target and NewTarget are kept only because bench/ names them; they go
// with the rest of the husk when the benchmark is next changed. Use
// hafi.Target and hafi.NewTarget.
type Target = hafi.Target

var NewTarget = hafi.NewTarget
