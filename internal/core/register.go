package core

import "rcm/internal/registry"

// The five paper geometries are ordinary registrants of the shared
// name-keyed registry, under the paper's geometry terms with the system
// names as aliases — the same two vocabularies the protocol registrations
// in internal/dht accept, mirrored. A user-defined geometry registered
// through rcm.RegisterGeometry resolves through exactly the same table.
func init() {
	static := func(g Geometry) registry.GeometryFactory {
		return func(registry.Config) (Geometry, error) { return g, nil }
	}
	for _, reg := range []struct {
		name    string
		factory registry.GeometryFactory
		aliases []string
	}{
		{"tree", static(Tree{}), []string{"plaxton"}},
		{"hypercube", static(Hypercube{}), []string{"can"}},
		{"xor", static(XOR{}), []string{"kademlia"}},
		{"ring", static(Ring{}), []string{"chord"}},
		// Per the Config contract, zero kn/ks select the paper's kn = ks = 1
		// default (matching the dht overlay's behavior, so the analytic and
		// simulated halves of a spec always agree). A kn = 0 analytic model
		// remains expressible through core.NewSymphony / rcm.Symphony.
		{"symphony", func(cfg registry.Config) (Geometry, error) {
			kn, ks := cfg.SymphonyNear, cfg.SymphonyShortcuts
			if kn == 0 {
				kn = 1
			}
			if ks == 0 {
				ks = 1
			}
			return NewSymphony(kn, ks)
		}, []string{"smallworld", "small-world"}},
		// Beyond the paper's five: the full-membership one-hop geometry
		// (see SingleHop), registered under the same name as its protocol
		// so an exp.SpecFor("singlehop") resolves both halves.
		{"singlehop", static(SingleHop{}), []string{"onehop", "d1ht"}},
	} {
		registry.Geometries.MustRegister(reg.name, reg.factory, reg.aliases...)
	}
}
