// Package topictrie indexes MQTT topic filters for the broker's hot path.
// It provides two pieces:
//
//   - Matches, an allocation-free single-filter matcher that walks topic
//     levels with index arithmetic instead of strings.Split;
//   - FilterTrie, a level-segmented index over many subscription filters
//     with `+`/`#` wildcard edges. Readers are lock-free: the root is an
//     atomic pointer to an immutable node graph and every mutation
//     copies the touched path (copy-on-write), so matching a publish
//     never blocks on subscribe/unsubscribe traffic. A node's literal
//     edges are a persistent map (internal/pmap), so the copy costs
//     O(log n) in the node's fan-out, not O(n).
//
// Both follow MQTT 3.1.1 §4.7, including [MQTT-4.7.2-1]: a filter whose
// first level is a wildcard does not match a topic beginning with '$'.
//
// The package is pure data structure: no clocks, no I/O, and no in-module
// import but the persistent map, so it sits at the bottom of the layering
// DAG next to geo and vclock.
package topictrie
