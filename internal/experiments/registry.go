package experiments

// Experiment is one entry of the registry: a paper artefact or ablation
// that cmd/experiments can regenerate by name.
type Experiment struct {
	Name string
	// Artefact is what the experiment reproduces: a table or figure of
	// the paper, or an ablation this repository adds.
	Artefact string
	// Partitions reports whether the experiment honours
	// Preset.Partitions; the others train every fold as one part
	// whatever the flag says.
	Partitions bool

	run func(Preset, DistributedConfig) (*Table, error)
}

// Run regenerates the experiment at the preset. cfg reaches the
// distributed experiment only.
func (e Experiment) Run(pre Preset, cfg DistributedConfig) (*Table, error) {
	if !e.Partitions {
		pre.Partitions = 0
	}
	return e.run(pre, cfg)
}

// Registry lists every experiment in the order `-exp all` runs them.
func Registry() []Experiment {
	plain := func(run func(Preset) (*Table, error)) func(Preset, DistributedConfig) (*Table, error) {
		return func(pre Preset, _ DistributedConfig) (*Table, error) { return run(pre) }
	}
	return []Experiment{
		{"table2", "Table II", false, plain(RunTable2)},
		{"table3", "Table III", true, plain(RunTable3)},
		{"table4", "Table IV", true, plain(RunTable4)},
		{"fig3", "Figure 3", false, plain(func(pre Preset) (*Table, error) {
			_, t, err := RunFig3(pre)
			return t, err
		})},
		{"fig4", "Figure 4", false, plain(func(pre Preset) (*Table, error) {
			_, t, err := RunFig4(pre)
			return t, err
		})},
		{"fig5", "Figure 5", true, plain(RunFig5)},
		{"ablation-features", "ablation: diagram families", false, plain(RunFeatureAblation)},
		{"ablation-query", "ablation: query strategies", true, plain(RunQueryAblation)},
		{"ablation-matching", "ablation: greedy vs Hungarian selection", false, plain(RunMatchingAblation)},
		{"ablation-noise", "ablation: one noisy labeller", false, plain(RunOracleNoiseAblation)},
		{"ablation-words", "ablation: word attribute", false, plain(RunWordFeatureAblation)},
		{"oracle-noise", "ablation: labeller panels", false, plain(RunOracleNoiseMatrix)},
		{"unsupervised", "ablation: IsoRank baseline", false, plain(RunUnsupervisedComparison)},
		{"stability", "ablation: Table III cell across dataset seeds", true, plain(func(pre Preset) (*Table, error) {
			return RunStability(pre, 3)
		})},
		{"scalability", "executors: one part vs K parts", true, plain(RunScalability)},
		{"distributed", "executors: in-process vs workers", true, RunDistributedWith},
	}
}
