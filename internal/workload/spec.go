package workload

import "repro/internal/txn"

// Spec is Config under the name the benchmark harness builds its sets
// through; NewSpec, Build and MustBuild forward to Default, Generate and
// MustGenerate.
type Spec = Config

// NewSpec is Default.
func NewSpec(utilization float64, seed uint64) Config { return Default(utilization, seed) }

// Build is Generate(c), for builder chains.
func (c Config) Build() (*txn.Set, error) { return Generate(c) }

// MustBuild is MustGenerate(c), for builder chains.
func (c Config) MustBuild() *txn.Set { return MustGenerate(c) }
