package lint

import (
	"strconv"
	"strings"
)

// LayerRule constrains the in-module imports of the packages matching From.
// Patterns are module-relative package paths; "p/..." matches p and every
// package below it, and "..." matches everything.
//
// Exactly one of Only/Deny is normally set:
//
//   - Only (non-nil): the complete allowlist of in-module imports. An empty
//     slice means the package may import nothing from the module at all.
//   - Deny: forbidden in-module imports; anything else is allowed.
type LayerRule struct {
	From string
	Only []string
	Deny []string
	Why  string
}

// DefaultLayering is the SenSocial reproduction's architecture DAG. The
// shape mirrors the paper's split: a device side (sensors, classifiers,
// local sensing) and a server side (OSN plugins, stream manager) meet only
// through the transport, and the simulators/experiment harness sit strictly
// on top. Grow the table when a layer legitimately gains a dependency; the
// layering analyzer fails the build on any edge not captured here.
func DefaultLayering() []LayerRule {
	return []LayerRule{
		// Foundation: pure computation and the clock. Nothing in-module.
		{From: "internal/vclock", Only: []string{},
			Why: "vclock is the foundation every layer builds on; it must not import anything in-module"},
		{From: "internal/geo", Only: []string{},
			Why: "geography is pure computation at the bottom of the DAG"},
		{From: "internal/energy", Only: []string{},
			Why: "the energy cost model is pure computation"},
		{From: "internal/loccount", Only: []string{},
			Why: "loccount is a standalone tool library"},

		// Observability substrate: clock only, below everything it measures.
		{From: "internal/obs", Only: []string{"internal/vclock"},
			Why: "obs instruments every layer, so it must sit below all of them"},

		// Durability substrate: clock and observability only, below every
		// stateful layer that journals through it.
		{From: "internal/wal", Only: []string{"internal/obs", "internal/vclock"},
			Why: "the write-ahead log is shared durability infrastructure; it must not know its consumers"},

		// Infrastructure simulators: clock and observability only.
		{From: "internal/netsim", Only: []string{"internal/obs", "internal/vclock"},
			Why: "the network simulator sits below every component it connects"},
		{From: "internal/mqtt/topictrie", Only: []string{},
			Why: "the topic-matching index is pure data structure at the bottom of the DAG"},
		{From: "internal/mqtt", Only: []string{"internal/mqtt/topictrie",
			"internal/obs", "internal/vclock", "internal/wal"},
			Why: "the MQTT transport must not depend on middleware layers"},
		{From: "internal/osn", Only: []string{"internal/vclock"},
			Why: "the OSN simulator must not know about devices or the server"},
		{From: "internal/cluster", Only: []string{"internal/mqtt",
			"internal/mqtt/topictrie", "internal/obs", "internal/vclock"},
			Why: "the cluster layer (hash ring + broker bridge) rides on the transport; it must not know the middleware, the server or the simulator"},

		// Device-side stack: must never see the OSN or the server.
		{From: "internal/sensors", Only: []string{"internal/geo"},
			Why: "sensor simulation is device-side; it must not import the OSN or server side"},
		{From: "internal/classify", Only: []string{"internal/geo", "internal/sensors"},
			Why: "classifiers consume sensor data only"},
		{From: "internal/device", Only: []string{"internal/classify", "internal/energy",
			"internal/geo", "internal/obs", "internal/sensors", "internal/vclock"},
			Why: "the simulated device must not see the OSN or server side, and its transport is injected (Config.Dial), so it must not know the fabric"},
		{From: "internal/sensing", Only: []string{"internal/device", "internal/geo",
			"internal/sensors", "internal/vclock"},
			Why: "local sensing runs on the device; no OSN or server imports"},
		{From: "internal/gar", Only: []string{"internal/classify", "internal/device",
			"internal/energy", "internal/geo", "internal/sensors", "internal/vclock"},
			Why: "the GAR baseline is a device-side app"},

		// Server-side stack and shared schema.
		{From: "internal/docstore", Only: []string{"internal/geo", "internal/vclock",
			"internal/wal"},
			Why: "storage primitives sit below the server"},
		{From: "internal/core", Only: []string{"internal/geo", "internal/osn",
			"internal/sensors", "internal/vclock"},
			Why: "the shared stream schema must not pull in transports or either endpoint"},
		{From: "internal/config", Only: []string{"internal/core"},
			Why: "configuration speaks the core schema and nothing else"},
		{From: "internal/behavior", Only: []string{"internal/classify", "internal/core",
			"internal/geo", "internal/osn", "internal/sensors"},
			Why: "behavior models translate OSN state into core terms"},
		{From: "internal/core/server/ingest", Only: []string{"internal/obs", "internal/vclock"},
			Why: "the sharded ingest pipeline is generic infrastructure; it must not know the middleware it carries"},
		{From: "internal/core/server/...", Deny: []string{"internal/core/mobile", "internal/sim",
			"internal/experiments", "internal/baselineapps/...", "internal/device",
			"internal/sensing", "internal/gar"},
			Why: "the server half must not depend on device-side code or the test harness"},
		{From: "internal/core/mobile", Deny: []string{"internal/core/server/...", "internal/sim",
			"internal/experiments", "internal/baselineapps/...", "internal/docstore"},
			Why: "the mobile half must not reach into server-side storage or the simulator"},

		// The one shard assembly: broker + journals + server + bridge + HTTP
		// are wired together here and nowhere else, behind an injected Listen.
		{From: "internal/shard", Only: []string{"internal/cluster", "internal/core/server",
			"internal/docstore", "internal/geo", "internal/mqtt", "internal/obs",
			"internal/vclock", "internal/wal"},
			Why: "a shard is what one sensocial-server process holds; its transport is injected, so it must not know the fabric or the simulator"},
		{From: "cmd/sensocial-server", Deny: []string{"internal/mqtt", "internal/docstore",
			"internal/wal", "internal/core/server"},
			Why: "the server binary runs internal/shard's assembly; wiring the pieces by hand again would fork what the simulator tests"},

		// Harness layers: strictly on top, never imported back.
		{From: "internal/sim", Deny: []string{"internal/experiments", "internal/baselineapps/..."},
			Why: "the world simulator composes the middleware, not the evaluation harness"},
		{From: "internal/sim", Deny: []string{"internal/core/server", "internal/docstore", "internal/wal"},
			Why: "the simulator builds its ring members with internal/shard, not a second hand-assembly"},
		{From: "internal/chaos", Only: []string{"internal/core", "internal/core/server",
			"internal/mqtt", "internal/netsim", "internal/obs", "internal/shard", "internal/sim",
			"internal/vclock"},
			Why: "the chaos harness drives the simulator from above; it composes sim, netsim and the transport and nothing may import it back"},
		{From: "internal/...", Deny: []string{"internal/chaos"},
			Why: "the chaos harness is a leaf like experiments; only cmd/ and tests may drive it"},
		{From: "internal/...", Deny: []string{"internal/experiments"},
			Why: "the experiment harness is a leaf; only cmd/ and tests may drive it"},
		{From: "internal/...", Deny: []string{"internal/lint/..."},
			Why: "the analyzer suite is tooling; runtime code must never depend on it"},
	}
}

// matchLayerPattern reports whether the module-relative package path rel
// matches pattern.
func matchLayerPattern(pattern, rel string) bool {
	if pattern == "..." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	}
	return rel == pattern
}

// NewLayering returns the analyzer enforcing the architecture DAG described
// by rules for the module rooted at modulePath.
func NewLayering(modulePath string, rules []LayerRule) *Analyzer {
	return &Analyzer{
		Name: "layering",
		Doc:  "enforce the architecture DAG from a declarative import table",
		Run: func(pkg *Package) []Diagnostic {
			rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modulePath), "/")
			var out []Diagnostic
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil || (path != modulePath && !strings.HasPrefix(path, modulePath+"/")) {
						continue // out-of-module imports are not layering's business
					}
					impRel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
					for _, rule := range rules {
						if !matchLayerPattern(rule.From, rel) {
							continue
						}
						if why := violates(rule, impRel); why != "" {
							out = append(out, Diagnostic{
								Pos:  pkg.Fset.Position(imp.Pos()),
								Rule: "layering",
								Message: rel + " must not import " + impRel + " (" + why + "): " +
									rule.Why,
							})
						}
					}
				}
			}
			return out
		},
	}
}

// violates returns a short explanation if importing impRel breaks rule, or
// "" if the import is allowed.
func violates(rule LayerRule, impRel string) string {
	if rule.Only != nil {
		for _, p := range rule.Only {
			if matchLayerPattern(p, impRel) {
				return ""
			}
		}
		if len(rule.Only) == 0 {
			return "allowed in-module imports: none"
		}
		return "allowed in-module imports: " + strings.Join(rule.Only, ", ")
	}
	for _, p := range rule.Deny {
		if matchLayerPattern(p, impRel) {
			return "denied by layering table"
		}
	}
	return ""
}
