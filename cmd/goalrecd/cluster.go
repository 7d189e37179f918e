// Cluster-role flag parsing, and the refusal of flags a role cannot honour.
// The roles themselves are wired in main.go's one serve path: -role worker
// adds a comms listener to the normal daemon, and -role coordinator puts the
// same HTTP server over a scatter-gather backend (internal/cluster) instead
// of the local engine.
//
// A local 3-node cluster:
//
//	goalrecd -role worker -library recipes.jsonl -addr :8081 -cluster-addr :7071 -shard-range 0:1000 &
//	goalrecd -role worker -library recipes.jsonl -addr :8082 -cluster-addr :7072 -shard-range 1000:2000 &
//	goalrecd -role worker -library recipes.jsonl -addr :8083 -cluster-addr :7073 -shard-range 2000:-1 &
//	goalrecd -role coordinator -library recipes.jsonl -addr :8080 \
//	         -peers localhost:7071,localhost:7072,localhost:7073
//
// Every node loads the same artifact (the coordinator validates vocabulary
// checksums at registration, so a mismatched file is rejected up front) and
// the worker ranges must tile [0, NumImplementations) exactly. Rankings
// served by the coordinator are bit-identical to a single node serving the
// whole library; POST /v1/reload on the coordinator drives a cluster-wide
// two-phase snapshot swap.
package main

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// roleOnlyFlags are the flags only one role can honour.
var roleOnlyFlags = map[string]string{
	"cluster-addr":    "worker",
	"shard-range":     "worker",
	"peers":           "coordinator",
	"partial-failure": "coordinator",
	"heartbeat":       "coordinator",
	"scatter-timeout": "coordinator",
}

// nodeOnlyFlags configure the store and the per-user state, which a
// coordinator does not have: it never scans, journals or keeps users.
var nodeOnlyFlags = []string{
	"snapshot-dir", "wal-sync", "compact-wal-bytes", "scrub-interval",
	"user-capacity", "user-views",
}

// checkRoleFlags refuses a flag set on the command line that role cannot
// honour, rather than ignoring it.
func checkRoleFlags(role string) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		want := roleOnlyFlags[f.Name]
		switch {
		case err != nil:
		case want != "" && want != role:
			err = fmt.Errorf("-%s needs -role %s", f.Name, want)
		case role == "coordinator" && slices.Contains(nodeOnlyFlags, f.Name):
			err = fmt.Errorf("-%s does not apply to -role coordinator: it never scans, journals or keeps users", f.Name)
		}
	})
	return err
}

// splitPeers parses the -peers comma list, dropping empty entries.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// parseShardRange parses "lo:hi"; hi may be -1 for "to the end".
func parseShardRange(s string) (lo, hi int, err error) {
	before, after, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, fmt.Errorf("invalid -shard-range %q (want \"lo:hi\", hi -1 for open-ended)", s)
	}
	if lo, err = strconv.Atoi(before); err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("invalid -shard-range %q: bad lo", s)
	}
	if hi, err = strconv.Atoi(after); err != nil || (hi < lo && hi != -1) {
		return 0, 0, fmt.Errorf("invalid -shard-range %q: bad hi", s)
	}
	return lo, hi, nil
}
