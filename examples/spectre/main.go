// Spectre demo: mounts the two transient-execution attacks of the
// paper's threat model against four system configurations and reports
// which leak.
//
//  1. The classic cache-channel leak: a squashed victim load touches a
//     secret-indexed probe line; the attacker times the probe array.
//  2. The prefetcher channel (MuonTrap/GhostMinion motivation): the
//     squashed victim loads form a secret-valued stride; an on-access
//     prefetcher extends the pattern into the cache even though the
//     transient fills themselves were invisible.
package main

import (
	"fmt"
	"log"

	"secpref"
)

func main() {
	const secret = 7

	fmt.Println("--- attack 1: transient cache channel ---")
	for _, sys := range []struct {
		name string
		cfg  secpref.AttackConfig
	}{
		{"non-secure cache", secpref.AttackConfig{}},
		{"GhostMinion", secpref.AttackConfig{Secure: true}},
	} {
		o, err := secpref.SpectreCacheLeak(sys.cfg, secret)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %v\n", sys.name, o)
	}

	fmt.Println("\n--- attack 2: transient prefetcher channel ---")
	for _, sys := range []struct {
		name string
		cfg  secpref.AttackConfig
	}{
		{"GhostMinion + on-access ip-stride", secpref.AttackConfig{Secure: true, Prefetcher: "ip-stride"}},
		{"GhostMinion + on-commit ip-stride", secpref.AttackConfig{Secure: true, Prefetcher: "ip-stride", OnCommitPrefetch: true}},
	} {
		o, err := secpref.SpectrePrefetchLeak(sys.cfg, secret)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %v\n", sys.name, o)
	}

	fmt.Println("\nOn-commit prefetching closes the prefetcher channel:")
	fmt.Println("the prefetcher is never trained on transient loads, so no secret-")
	fmt.Println("dependent state reaches the cache hierarchy.")
}
