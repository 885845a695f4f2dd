package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// inputSets is how many input sets the workloads draw from. Seed n runs
// input set (n-1) mod inputSets + 1, so every seed runs inputs whose output
// digest is recorded, and the A/B mode's ten pairs run each set once.
const inputSets = 10

// inputSeed returns the input set that seed runs.
func inputSeed(seed uint64) uint64 { return (seed-1)%inputSets + 1 }

// referenceJSON holds the output digest of each workload for input sets
// 1-10, recorded at the revision the baseline in README.md names.
// paper-suite ignores the seed, so its one digest is filed under "*".
// Regenerate with `hostbench reference` only for a change meant to alter
// simulated results.
//
//go:embed reference.json
var referenceJSON []byte

// references maps workload -> input set ("*" for any) -> digest.
type references map[string]map[string]string

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// check requires every round of a run to have produced the same digest, and
// that digest to match the reference recorded for the input set. A workload
// that produces digests but has no reference for the set fails: its output
// would go unchecked.
func (r references) check(name string, input uint64, digests []string) error {
	if len(digests) == 0 {
		return nil
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			return fmt.Errorf("rounds of one run disagree: digest %s vs %s", d, digests[0])
		}
	}
	want, ok := r[name]["*"]
	if !ok {
		want, ok = r[name][strconv.FormatUint(input, 10)]
	}
	if !ok {
		return fmt.Errorf("no reference digest for input set %d", input)
	}
	if want != digests[0] {
		return fmt.Errorf("output digest %s differs from reference %s for input set %d", digests[0], want, input)
	}
	return nil
}

// runReference records the output digests of one round per workload and
// input set into reference.json. A round whose checks fail is not recorded.
func runReference(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	out := fs.String("out", "hostbench/reference.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	refs := references{}
	for _, w := range workloads {
		refs[w.name] = map[string]string{}
		for seed := uint64(1); seed <= inputSets; seed++ {
			r := runRound(w, seed, nil, nil)
			o := r.outcome
			if o.failed > 0 || o.digest == "" {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, o.failed, o.ops)
			}
			key := strconv.FormatUint(seed, 10)
			if w.name == "paper-suite" {
				key = "*"
			}
			refs[w.name][key] = o.digest
			fmt.Fprintf(os.Stderr, "%s %s %s\n", w.name, key, o.digest)
			if key == "*" {
				break
			}
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}
