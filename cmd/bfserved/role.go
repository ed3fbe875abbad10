package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"butterfly/internal/cluster"
)

// roleConfig is the validated cluster identity of this process.
type roleConfig struct {
	role     string   // "single", "shard", or "router"
	shards   []string // router only: shard base URLs
	replicas int      // router only: read replicas per graph
	vnodes   int      // router only: ring points per shard (0 = default)
}

// flagScope says where a flag applies: the roles that read it, and
// the setting of another flag it takes effect with. Flags not in
// flagScopes (-addr, -drain, -role) apply everywhere.
type flagScope struct {
	roles string   // space-separated roles that read the flag ("" = all)
	needs *setting // setting it takes effect with (nil = none)
}

// setting is a flag's switched-on values: on reports whether the value
// given on the command line switches it on, and name says which values
// do in an error. Every flag a scope needs is off at its default
// (-data-dir "", -fsync always, -slow-query-ms -1), so a flag left off
// the command line is off.
type setting struct {
	flag, name string
	on         func(v string) bool
}

const nodeRoles = "single shard"

var (
	durable = &setting{flag: "data-dir", name: "-data-dir", on: func(v string) bool { return v != "" }}
	fsyncOn = &setting{flag: "fsync", name: "-fsync interval", on: func(v string) bool { return v == "interval" }}
	slowOn  = &setting{flag: "slow-query-ms", name: "-slow-query-ms >= 0", on: func(v string) bool {
		ms, err := strconv.Atoi(v)
		return err == nil && ms >= 0
	}}
)

var flagScopes = map[string]flagScope{
	"shards":           {roles: "router"},
	"replicas":         {roles: "router"},
	"vnodes":           {roles: "router"},
	"max-inflight":     {roles: nodeRoles},
	"queue":            {roles: nodeRoles},
	"cache":            {roles: nodeRoles},
	"timeout":          {roles: nodeRoles},
	"max-timeout":      {roles: nodeRoles},
	"preload":          {roles: nodeRoles},
	"allow-path-load":  {roles: nodeRoles},
	"data-dir":         {roles: nodeRoles},
	"fsync":            {needs: durable},
	"fsync-interval":   {needs: fsyncOn},
	"checkpoint-bytes": {needs: durable},
	"reservoir":        {roles: nodeRoles},
	"pprof":            {roles: nodeRoles},
	"slow-query-ms":    {roles: nodeRoles},
	"slow-query-log":   {needs: slowOn},
	"tenants":          {roles: nodeRoles},
	"disable-legacy":   {roles: nodeRoles},
}

// validateRole checks the flag combination before anything heavier
// runs. set maps each flag given on the command line to its value:
// each must apply to the role, and the setting it needs must be
// switched on (flagScopes), so a flag the chosen mode would ignore is
// an error rather than a silent no-op. A router also needs -shards as
// absolute http(s) URLs. Defaults are never checked, so plain
// `bfserved` keeps working.
func validateRole(role, shards string, replicas, vnodes int, set map[string]string) (roleConfig, error) {
	rc := roleConfig{role: role, replicas: replicas, vnodes: vnodes}
	if role != "single" && role != "shard" && role != "router" {
		return rc, fmt.Errorf("unknown -role %q (want single, shard, or router)", role)
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		sc := flagScopes[name]
		if sc.roles != "" && !slices.Contains(strings.Fields(sc.roles), role) {
			return rc, fmt.Errorf("-%s does not apply to -role=%s (only to -role=%s)",
				name, role, strings.ReplaceAll(sc.roles, " ", "|"))
		}
		if n := sc.needs; n != nil {
			if v, ok := set[n.flag]; !ok || !n.on(v) {
				return rc, fmt.Errorf("-%s has no effect without %s", name, n.name)
			}
		}
	}
	if role != "router" {
		return rc, nil
	}
	if shards == "" {
		return rc, errors.New("-role=router requires -shards (comma-separated shard base URLs)")
	}
	for _, s := range strings.Split(shards, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		u, err := url.Parse(s)
		if err != nil || !u.IsAbs() || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return rc, fmt.Errorf("bad -shards entry %q: want an absolute http(s) URL like http://10.0.0.1:8080", s)
		}
		rc.shards = append(rc.shards, strings.TrimRight(s, "/"))
	}
	if len(rc.shards) == 0 {
		return rc, errors.New("-shards is empty after parsing (want comma-separated shard base URLs)")
	}
	if replicas < 1 {
		return rc, fmt.Errorf("-replicas must be >= 1 (got %d)", replicas)
	}
	if vnodes < 0 {
		return rc, fmt.Errorf("-vnodes must be >= 0 (got %d)", vnodes)
	}
	return rc, nil
}

// runRouter is the -role=router serving path: no registry, no store —
// just the cluster router proxying /v1 to the shards in -shards.
func runRouter(rc roleConfig, addr string, drainWait time.Duration, ready chan<- string) error {
	rt, err := cluster.New(cluster.Config{
		Shards:   rc.shards,
		Replicas: rc.replicas,
		VNodes:   rc.vnodes,
	})
	if err != nil {
		return err
	}

	// Learn what the shards already hold (graphs registered by a
	// previous router, or recovered from their WALs). Failure is not
	// fatal: shards may still be booting, and Refresh happens lazily
	// via /admin/rebalance or re-registration too.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := rt.Refresh(ctx); err != nil {
		log.Printf("warning: shard inventory incomplete at startup: %v", err)
	}
	cancel()

	return serveAndDrain(addr, rt, drainWait, ready, func(a net.Addr) {
		log.Printf("bfserved router listening on %s (shards=%d replicas=%d)",
			a, len(rc.shards), rc.replicas)
	})
}
