// Package failpoint is the runtime fault layer of the storage
// robustness stack: a registry of named targets (a docstore shard, a
// remote backend, any failure domain) onto which tests and chaos
// harnesses inject latency, probabilistic errors, or full outages while
// the process keeps running. It complements internal/faultfs, which
// injects at-rest faults into the filesystem during snapshot commits —
// failpoint injects in-flight faults into the serving path.
//
// Injection is deterministic: the registry owns a seeded PRNG, so a
// chaos run with a fixed seed reproduces the same error schedule, and
// the latency sleeper is injectable so unit tests never actually sleep.
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error every faulted operation returns, wrapped
// with the target name. Callers distinguish injected faults from real
// ones with errors.Is.
var ErrInjected = errors.New("failpoint: injected failure")

// Rule describes the fault behavior of one target. The zero Rule is a
// healthy target.
type Rule struct {
	// Down makes every operation against the target fail — a dead
	// shard, an unreachable node.
	Down bool
	// ErrRate in [0,1] fails that fraction of operations, drawn from
	// the registry's seeded PRNG — a flaky link.
	ErrRate float64
	// Latency is added to every operation before it completes — a slow
	// disk or saturated peer. Applied even when the operation then
	// fails, like a real timeout.
	Latency time.Duration
	// SkipChecks lets the first N checks after the rule is installed
	// pass untouched before the fault behavior starts — a target that
	// dies mid-sequence, e.g. between a write and the read-back that
	// follows it. Counted per rule installation: Set resets the budget.
	SkipChecks int
}

// Registry holds the active rules. A nil *Registry is valid and injects
// nothing, so production paths pay one nil check when chaos is off.
type Registry struct {
	mu    sync.Mutex
	rules map[string]Rule
	skips map[string]int // remaining SkipChecks budget per rule key
	rng   *rand.Rand
	hits  map[string]int // injected failures per target
	seen  map[string]int // total checks per target

	// sleep is the latency sink; tests replace it to avoid real delays.
	sleep func(time.Duration)
}

// New builds an empty registry with a deterministic PRNG.
func New(seed int64) *Registry {
	return &Registry{
		rules: map[string]Rule{},
		skips: map[string]int{},
		rng:   rand.New(rand.NewSource(seed)),
		hits:  map[string]int{},
		seen:  map[string]int{},
		sleep: time.Sleep,
	}
}

// SetSleeper replaces the function used to realize injected latency
// (tests pass a recorder; nil restores time.Sleep).
func (r *Registry) SetSleeper(fn func(time.Duration)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		fn = time.Sleep
	}
	r.sleep = fn
}

// Set installs (or replaces) the rule for a target. A target ending in
// "*" is a prefix rule matching every target that starts with the part
// before the star — Set("shard2/*", Rule{Down: true}) fails every
// target named "shard2/…".
func (r *Registry) Set(target string, rule Rule) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[target] = rule
	r.skips[target] = rule.SkipChecks
}

// Clear removes the rule for a target (exact key, including prefix
// keys).
func (r *Registry) Clear(target string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.rules, target)
	delete(r.skips, target)
}

// ClearAll removes every rule, returning the registry to fully healthy.
func (r *Registry) ClearAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules = map[string]Rule{}
	r.skips = map[string]int{}
}

// lookup resolves the effective rule for a target: an exact rule wins,
// otherwise the longest matching prefix rule applies.
func (r *Registry) lookup(target string) (Rule, string, bool) {
	if rule, ok := r.rules[target]; ok {
		return rule, target, true
	}
	var best Rule
	var bestKey string
	bestLen := -1
	for key, rule := range r.rules {
		if !strings.HasSuffix(key, "*") {
			continue
		}
		prefix := strings.TrimSuffix(key, "*")
		if strings.HasPrefix(target, prefix) && len(prefix) > bestLen {
			best, bestKey, bestLen = rule, key, len(prefix)
		}
	}
	return best, bestKey, bestLen >= 0
}

// Check runs one operation against the target through the fault rules:
// it sleeps any injected latency, then fails if the target is down or
// the seeded PRNG lands inside ErrRate. Nil registries and unknown
// targets always pass.
func (r *Registry) Check(target string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rule, key, ok := r.lookup(target)
	if !ok {
		r.mu.Unlock()
		return nil
	}
	r.seen[target]++
	if r.skips[key] > 0 {
		r.skips[key]--
		r.mu.Unlock()
		return nil
	}
	fail := rule.Down
	if !fail && rule.ErrRate > 0 && r.rng.Float64() < rule.ErrRate {
		fail = true
	}
	if fail {
		r.hits[target]++
	}
	sleep := r.sleep
	r.mu.Unlock()

	if rule.Latency > 0 {
		sleep(rule.Latency)
	}
	if fail {
		return fmt.Errorf("%w: %s", ErrInjected, target)
	}
	return nil
}

// Injected returns how many checks against target were failed so far.
func (r *Registry) Injected(target string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[target]
}

// Checks returns how many checks matched a rule for target so far.
func (r *Registry) Checks(target string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[target]
}
