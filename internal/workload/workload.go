// Package workload generates the synthetic transaction workloads of the
// paper's evaluation (Table I and Section IV-A):
//
//   - 1000 transactions per run, lengths drawn from a Zipf(alpha=0.5)
//     distribution over [1, 50] time units, skewed toward short transactions;
//   - Poisson arrivals with rate = SystemUtilization / AvgTransactionLength;
//   - deadlines d_i = a_i + l_i + k_i*l_i with the slack factor k_i uniform
//     on [0, kmax] (default kmax = 3);
//   - integer weights uniform on [1, 10] (unit weights for the unweighted
//     experiments);
//   - workflows built as dependency chains whose length is uniform on
//     [1, MaxWorkflowLength], with each transaction joining up to
//     MaxMembership chains (Section IV-A "Workflows").
//
// The paper does not disclose how workflow members are selected, how the
// precedence order within a workflow relates to arrival order, or whether a
// page's transactions are submitted together (as Section II-B's application
// scenario describes) or individually. Those three degrees of freedom are
// exposed as ChainMembers, ChainOrder and ChainArrivals so experiments can
// state exactly which reading they use; DESIGN.md records the defaults and
// the sensitivity study behind them.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/contention"
	"repro/internal/rng"
	"repro/internal/txn"
)

// ChainMembers selects how workflow members are drawn from the transaction
// population.
type ChainMembers int

const (
	// MembersConsecutive forms chains over consecutive transactions in
	// arrival order — fragments of one page are requested close together.
	MembersConsecutive ChainMembers = iota
	// MembersUniform samples members uniformly from the whole workload.
	MembersUniform
)

// ChainOrder selects the precedence direction within a chain.
type ChainOrder int

const (
	// OrderArrival directs edges from earlier-arriving to later-arriving
	// members (producers are requested before consumers).
	OrderArrival ChainOrder = iota
	// OrderRandom shuffles the precedence order, maximizing the
	// deadline-versus-precedence conflicts of Section II-B.
	OrderRandom
)

// Burstiness selects the arrival process shape.
type Burstiness int

const (
	// BurstNone uses a plain Poisson process (Table I).
	BurstNone Burstiness = iota
	// BurstOnOff modulates the Poisson rate with a two-state ON/OFF Markov
	// process: ON periods arrive at three times the base rate, OFF periods
	// at one fifth of it, with mean state holding times of 50 time units.
	// The long-run average rate is preserved, so the target utilization
	// still holds; only the variance grows — the "bursty and unpredictable
	// behavior of web user populations" the paper's introduction motivates
	// adaptivity with.
	BurstOnOff
)

// ON/OFF modulation parameters (exported only through behaviour; the
// stationary mix keeps the average rate at the Poisson baseline).
const (
	burstOnFactor  = 3.0
	burstOffFactor = 0.2
	burstHold      = 50.0
)

// burstStationaryShare is the ON-state probability p solving
// p*on + (1-p)*off = 1 for equal holding times... with equal mean holding
// times the time shares are 1/2 each, so the rate scale is normalized by
// (on+off)/2 instead.
const burstNorm = (burstOnFactor + burstOffFactor) / 2

// ChainArrivals selects how arrival times relate to chains.
type ChainArrivals int

const (
	// ArrivalsPerTxn assigns every transaction its own Poisson arrival
	// (the literal Table I reading).
	ArrivalsPerTxn ChainArrivals = iota
	// ArrivalsBatch submits all members of a chain at the chain's Poisson
	// arrival instant, like a dynamic web page requesting all its fragments
	// when the user logs on (Section II-B).
	ArrivalsBatch
)

// Config holds every generator parameter of Table I plus the workflow-shape
// parameters of Section IV-A and the optional contention keyspace. The zero
// value is not valid; start from Default and override with the With*
// builders:
//
//	set, err := workload.Generate(workload.Default(0.9, 42).
//		WithWorkflows(5, 2).
//		WithContention(contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 4, Writes: 2}))
type Config struct {
	// N is the number of transactions (paper: 1000).
	N int
	// LengthMin and LengthMax bound the Zipf length range (paper: [1, 50]).
	LengthMin int
	LengthMax int
	// Alpha is the Zipf skew of the length distribution (paper default 0.5).
	Alpha float64
	// Utilization is the target system utilization in (0, ...]; the Poisson
	// arrival rate is Utilization / mean length (paper sweeps 0.1 to 1.0).
	Utilization float64
	// KMax bounds the uniform slack factor k_i in [0, KMax] (paper default 3).
	KMax float64
	// WeightMin and WeightMax bound the integer weights (paper: [1, 10];
	// set both to 1 for unweighted experiments).
	WeightMin int
	WeightMax int
	// MaxWorkflowLength bounds chain length; values <= 1 generate an
	// independent workload (no precedence constraints).
	MaxWorkflowLength int
	// MaxMembership bounds how many workflows a transaction may belong to
	// (paper varies 1 to 10). Ignored when MaxWorkflowLength <= 1.
	MaxMembership int
	// Members, Order and Arrivals select the workflow-shape reading; see the
	// type docs. The zero values are the defaults used by the experiments.
	Members  ChainMembers
	Order    ChainOrder
	Arrivals ChainArrivals
	// Bursts selects the arrival process: plain Poisson (default) or the
	// ON/OFF modulated process described on Burstiness.
	Bursts Burstiness
	// CacheHitRatio models fragment caching/materialization (Section II-A
	// cites WebView materialization [8]: "transactions' lengths are
	// adjusted accordingly"): each transaction is a cache hit with this
	// probability, shrinking its length by CacheSpeedup. Zero disables
	// caching (the default; Table I has no cache).
	CacheHitRatio float64
	// CacheSpeedup is the length multiplier applied to cache hits
	// (default 0.2 when caching is enabled, i.e. hits cost 20% of a miss).
	CacheSpeedup float64
	// Seed drives all randomness; equal configs with equal seeds generate
	// identical workloads on any platform.
	Seed uint64
	// Contention, when non-nil, draws Zipf-skewed read/write sets over the
	// keyspace for every generated transaction, switching the run loops to
	// commit-time validation (docs/CONTENTION.md). It is left out of the
	// JSON file format, which carries no key sets.
	Contention *contention.Keyspace `json:"-"`
}

// Default returns Table I's default configuration: an independent,
// unweighted workload at the given utilization.
func Default(utilization float64, seed uint64) Config {
	return Config{
		N:                 1000,
		LengthMin:         1,
		LengthMax:         50,
		Alpha:             0.5,
		Utilization:       utilization,
		KMax:              3.0,
		WeightMin:         1,
		WeightMax:         1,
		MaxWorkflowLength: 1,
		MaxMembership:     1,
		Seed:              seed,
	}
}

// WithN returns a copy generating n transactions.
func (c Config) WithN(n int) Config {
	c.N = n
	return c
}

// WithWeights returns a copy with weights drawn from [1, 10] (Table I).
func (c Config) WithWeights() Config {
	c.WeightMin, c.WeightMax = 1, 10
	return c
}

// WithWorkflows returns a copy generating dependency chains with the given
// maximum length and per-transaction membership bound.
func (c Config) WithWorkflows(maxLen, maxMembership int) Config {
	c.MaxWorkflowLength = maxLen
	c.MaxMembership = maxMembership
	return c
}

// WithCache returns a copy where each transaction is a cache hit with the
// given probability, costing speedup times its drawn length (fragment
// materialization per Section II-A's caching note).
func (c Config) WithCache(hitRatio, speedup float64) Config {
	c.CacheHitRatio = hitRatio
	c.CacheSpeedup = speedup
	return c
}

// WithContention returns a copy drawing read/write sets over ks. The
// key-draw seed derives from the workload seed, so one seed still pins the
// whole workload.
func (c Config) WithContention(ks contention.Keyspace) Config {
	c.Contention = &ks
	return c
}

// Validate reports the first invalid parameter, if any.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload: N %d must be positive", c.N)
	case c.LengthMin <= 0 || c.LengthMax < c.LengthMin:
		return fmt.Errorf("workload: length range [%d, %d] invalid", c.LengthMin, c.LengthMax)
	case c.Alpha < 0:
		return fmt.Errorf("workload: alpha %v must be non-negative", c.Alpha)
	case c.Utilization <= 0:
		return fmt.Errorf("workload: utilization %v must be positive", c.Utilization)
	case c.KMax < 0:
		return fmt.Errorf("workload: kmax %v must be non-negative", c.KMax)
	case c.WeightMin <= 0 || c.WeightMax < c.WeightMin:
		return fmt.Errorf("workload: weight range [%d, %d] invalid", c.WeightMin, c.WeightMax)
	case c.MaxWorkflowLength < 0:
		return fmt.Errorf("workload: max workflow length %d must be non-negative", c.MaxWorkflowLength)
	case c.MaxWorkflowLength > 1 && c.MaxMembership < 1:
		return fmt.Errorf("workload: max membership %d must be at least 1 when workflows are enabled", c.MaxMembership)
	case c.CacheHitRatio < 0 || c.CacheHitRatio > 1:
		return fmt.Errorf("workload: cache hit ratio %v outside [0, 1]", c.CacheHitRatio)
	case c.CacheHitRatio > 0 && (c.CacheSpeedup <= 0 || c.CacheSpeedup > 1):
		return fmt.Errorf("workload: cache speedup %v outside (0, 1]", c.CacheSpeedup)
	case c.Contention != nil:
		return c.Contention.Validate()
	}
	return nil
}

// contentionSeedStream separates the key-draw seed from the workload's
// arrival/length stream.
const contentionSeedStream = 0xc0_17e4d

// Generate produces a validated transaction set from the configuration:
// the Table I draw first, then, under a keyspace, the read/write sets from
// their own stream derived from cfg.Seed.
func Generate(cfg Config) (*txn.Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	zipf, err := rng.NewZipf(cfg.LengthMin, cfg.LengthMax, cfg.Alpha)
	if err != nil {
		return nil, err
	}

	// Lengths first, so the arrival rate can use the realized mean length
	// exactly as the paper prescribes (rate = utilization / avg length).
	lengths := make([]float64, cfg.N)
	var totalLen float64
	for i := range lengths {
		lengths[i] = float64(zipf.Sample(src))
		if cfg.CacheHitRatio > 0 && src.Bool(cfg.CacheHitRatio) {
			// Cache hit: the fragment is served from materialized state.
			lengths[i] *= cfg.CacheSpeedup
		}
		totalLen += lengths[i]
	}

	// The transactions are carved from one slab: one allocation per set
	// rather than one per transaction.
	slab := make([]txn.Transaction, cfg.N)
	txns := make([]*txn.Transaction, cfg.N)
	for i := 0; i < cfg.N; i++ {
		k := src.Uniform(0, cfg.KMax)
		weight := float64(src.IntRange(cfg.WeightMin, cfg.WeightMax))
		l := lengths[i]
		txns[i] = &slab[i]
		slab[i] = txn.Transaction{
			ID:     txn.ID(i),
			Length: l,
			Weight: weight,
			// Deadline is finalized once the arrival time is known; the
			// field temporarily holds the relative deadline l + k*l.
			Deadline: l + k*l,
		}
	}

	if cfg.MaxWorkflowLength > 1 {
		chains := formChains(cfg, src, txns)
		assignArrivals(cfg, src, txns, chains, totalLen)
		orderChains(cfg, src, txns, chains)
	} else {
		assignArrivals(cfg, src, txns, nil, totalLen)
	}

	set, err := txn.NewSet(txns)
	if err != nil || cfg.Contention == nil {
		return set, err
	}
	if err := contention.Assign(set, *cfg.Contention, rng.Derive(cfg.Seed, contentionSeedStream)); err != nil {
		return nil, err
	}
	return set, nil
}

// MustGenerate is Generate but panics on error, for benchmarks and examples
// with constant configurations.
func MustGenerate(cfg Config) *txn.Set {
	set, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return set
}

// formChains groups transaction indices into chains. Each transaction draws
// a membership capacity uniform on [1, MaxMembership] and each chain a
// target length uniform on [1, MaxWorkflowLength] (Section IV-A); edges are
// added later by orderChains.
func formChains(cfg Config, src *rng.Source, txns []*txn.Transaction) [][]int {
	n := len(txns)
	capacity := make([]int, n)
	for i := range capacity {
		capacity[i] = src.IntRange(1, cfg.MaxMembership)
	}
	memberships := make([]int, n)
	var chains [][]int

	switch cfg.Members {
	case MembersUniform:
		pool := make([]int, n)
		for i := range pool {
			pool[i] = i
		}
		for len(pool) > 0 {
			length := src.IntRange(1, cfg.MaxWorkflowLength)
			if length > len(pool) {
				length = len(pool)
			}
			chain := make([]int, 0, length)
			for j := 0; j < length; j++ {
				k := src.Intn(len(pool))
				chain = append(chain, pool[k])
				memberships[pool[k]]++
				if memberships[pool[k]] >= capacity[pool[k]] {
					pool[k] = pool[len(pool)-1]
					pool = pool[:len(pool)-1]
				}
			}
			chains = append(chains, chain)
		}
	case MembersConsecutive:
		// Each chain claims fresh transactions from the cursor onward and —
		// when MaxMembership allows — weaves back through a trailing window
		// of recently claimed transactions with spare capacity, so
		// neighbouring chains share members (Section II-A: "a transaction
		// can belong to more than one workflow").
		window := 2 * cfg.MaxWorkflowLength
		cursor := 0
		for cursor < n {
			length := src.IntRange(1, cfg.MaxWorkflowLength)
			chain := make([]int, 0, length)
			start := cursor
			if cfg.MaxMembership > 1 && cursor-window > 0 {
				start = cursor - window
			} else if cfg.MaxMembership > 1 {
				start = 0
			}
			for i := start; i < n && len(chain) < length; i++ {
				if memberships[i] >= capacity[i] {
					continue
				}
				if memberships[i] > 0 && !src.Bool(0.5) {
					// Already in some chain: join this one only half the
					// time, keeping overlap moderate.
					continue
				}
				chain = append(chain, i)
				memberships[i]++
			}
			if len(chain) == 0 {
				break
			}
			chains = append(chains, chain)
			for cursor < n && memberships[cursor] > 0 {
				cursor++
			}
		}
	default:
		panic(fmt.Sprintf("workload: unknown chain-membership mode %d", cfg.Members))
	}
	return chains
}

// assignArrivals sets arrival times (and finalizes deadlines). With
// ArrivalsPerTxn every transaction gets its own Poisson arrival at rate
// utilization/avgLength (Table I). With ArrivalsBatch the chains arrive as
// units at rate utilization*numChains/totalWork, preserving offered load; a
// transaction shared between chains keeps its earliest submission.
func assignArrivals(cfg Config, src *rng.Source, txns []*txn.Transaction, chains [][]int, totalLen float64) {
	if cfg.Arrivals == ArrivalsBatch && len(chains) > 0 {
		rate := cfg.Utilization * float64(len(chains)) / totalLen
		arrived := make([]bool, len(txns))
		var now float64
		for _, chain := range chains {
			now += src.Exp(rate)
			for _, i := range chain {
				if arrived[i] {
					continue
				}
				arrived[i] = true
				txns[i].Arrival = now
				txns[i].Deadline += now
			}
		}
		return
	}
	rate := cfg.Utilization * float64(len(txns)) / totalLen
	gaps := newGapSource(cfg.Bursts, rate, src)
	var now float64
	for _, t := range txns {
		now += gaps.next()
		t.Arrival = now
		t.Deadline += now
	}
}

// gapSource draws inter-arrival gaps: exponential for Poisson, or
// exponential at a rate modulated by a two-state ON/OFF Markov chain whose
// long-run average equals the base rate.
type gapSource struct {
	src      *rng.Source
	base     float64
	bursty   bool
	on       bool
	stateEnd float64 // remaining time in the current state
}

func newGapSource(b Burstiness, rate float64, src *rng.Source) *gapSource {
	g := &gapSource{src: src, base: rate, bursty: b == BurstOnOff}
	if g.bursty {
		g.on = src.Bool(0.5)
		g.stateEnd = src.Exp(1 / burstHold)
	}
	return g
}

func (g *gapSource) next() float64 {
	if !g.bursty {
		return g.src.Exp(g.base)
	}
	// Walk through modulation states until a gap completes. The arrival
	// intensity in each state is base * factor / norm so the stationary
	// average stays at base.
	var elapsed float64
	for {
		factor := burstOffFactor
		if g.on {
			factor = burstOnFactor
		}
		rate := g.base * factor / burstNorm
		gap := g.src.Exp(rate)
		if gap <= g.stateEnd {
			g.stateEnd -= gap
			return elapsed + gap
		}
		// State flips before the arrival lands; credit the time spent and
		// redraw in the new state (memorylessness makes this exact).
		elapsed += g.stateEnd
		g.on = !g.on
		g.stateEnd = g.src.Exp(1 / burstHold)
	}
}

// orderChains fixes the precedence direction within every chain and
// materializes the dependency edges. Under OrderArrival edges run from
// earlier to later arrivals; under OrderRandom the order is shuffled, which
// maximizes deadline-versus-precedence conflicts. Overlapping chains under
// MaxMembership > 1 could combine into cycles, so every edge passes a
// reachability guard first.
func orderChains(cfg Config, src *rng.Source, txns []*txn.Transaction, chains [][]int) {
	for _, chain := range chains {
		switch cfg.Order {
		case OrderRandom:
			src.Shuffle(len(chain), func(i, j int) { chain[i], chain[j] = chain[j], chain[i] })
		case OrderArrival:
			sort.Slice(chain, func(a, b int) bool {
				if txns[chain[a]].Arrival != txns[chain[b]].Arrival {
					return txns[chain[a]].Arrival < txns[chain[b]].Arrival
				}
				return chain[a] < chain[b]
			})
		default:
			panic(fmt.Sprintf("workload: unknown chain-order mode %d", cfg.Order))
		}
		for j := 1; j < len(chain); j++ {
			if !wouldCycle(txns, chain[j-1], chain[j]) {
				addDep(txns[chain[j]], txn.ID(chain[j-1]))
			}
		}
	}
}

// wouldCycle reports whether adding the edge pred -> succ (succ depends on
// pred) would close a dependency cycle, i.e. whether pred already depends
// transitively on succ. Within a single chain this cannot happen (a chain is
// a simple path over distinct transactions), but overlapping chains under
// MaxMembership > 1 can combine into cycles without this guard.
func wouldCycle(txns []*txn.Transaction, pred, succ int) bool {
	if pred == succ {
		return true
	}
	seen := map[txn.ID]bool{}
	stack := []txn.ID{txn.ID(pred)}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn.ID(succ) {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, txns[cur].Deps...)
	}
	return false
}

// addDep appends dep to t.Deps unless already present.
func addDep(t *txn.Transaction, dep txn.ID) {
	for _, d := range t.Deps {
		if d == dep {
			return
		}
	}
	t.Deps = append(t.Deps, dep)
	sort.Slice(t.Deps, func(i, j int) bool { return t.Deps[i] < t.Deps[j] })
}
