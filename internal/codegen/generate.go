package codegen

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/template"

	"github.com/smartfactory/sysml2conf/internal/core"
	"github.com/smartfactory/sysml2conf/internal/k8s"
)

// Bundle is the complete generated configuration: the step-1 intermediate
// JSON files and the step-2 Kubernetes manifests, plus a summary matching
// the quantities reported in the paper's Table I last row.
//
// A Bundle is immutable after Generate returns; do not mutate the file maps.
type Bundle struct {
	Intermediate *Intermediate
	// JSON maps "machines/emco.json"-style paths to step-1 artifacts.
	JSON map[string][]byte
	// Manifests maps "manifests/10-opcua-server-....yaml" paths to YAML.
	Manifests map[string][]byte
	Summary   Summary

	// objects holds, per manifest path, what the generator's validation pass
	// decoded from those bytes (see Objects).
	objects map[string][]k8s.Object

	// allFiles is the sorted JSON+Manifests union, built once on first
	// AllFiles call (the maps never change after Generate).
	allOnce  sync.Once
	allFiles []NamedFile
}

// Summary mirrors the last row of Table I.
type Summary struct {
	Servers     int `json:"opcuaServers"`
	Clients     int `json:"opcuaClients"`
	Monitors    int `json:"monitors"`
	ConfigBytes int `json:"configBytes"` // total size of all generated files
	JSONBytes   int `json:"jsonBytes"`
	YAMLBytes   int `json:"yamlBytes"`
	Files       int `json:"files"`
	Machines    int `json:"machines"`
	Variables   int `json:"variables"`
	Services    int `json:"services"`
}

// GenOptions tunes the full pipeline.
type GenOptions struct {
	Options           // step 1 options
	Namespace  string // Kubernetes namespace (default: factory name)
	Images     Images // container images (default: DefaultImages)
	BrokerPort int    // broker service port (default 1883)
	// Workers bounds the generation worker pool. 0 means GOMAXPROCS;
	// 1 forces the sequential reference path. Output is byte-identical
	// for every worker count.
	Workers int
}

func (o GenOptions) withDefaults(factory string) GenOptions {
	o.Options = o.Options.withDefaults()
	if o.Namespace == "" {
		o.Namespace = sanitizeName(factory)
	}
	if o.Images == (Images{}) {
		o.Images = DefaultImages
	}
	if o.BrokerPort <= 0 {
		o.BrokerPort = 1883
	}
	return o
}

// genUnit is one independent piece of generation work: a stable identity,
// a content hash of everything that influences its output, and a builder
// that renders (and, for manifests, validates) its artifacts.
type genUnit struct {
	key   string
	hash  uint64
	build func() ([]NamedFile, error)
}

// Generate runs the full two-step pipeline on an extracted factory.
func Generate(f *core.Factory, opts GenOptions) (*Bundle, error) {
	return GenerateWithCache(f, opts, nil)
}

// GenerateWithCache is Generate with artifact memoization: units whose
// content hash is unchanged since a previous run against the same Cache are
// served from the cache, skipping both template rendering and the manifest
// decode+validate pass. Passing a nil cache disables memoization.
func GenerateWithCache(f *core.Factory, opts GenOptions, cache *Cache) (*Bundle, error) {
	opts = opts.withDefaults(f.Name)

	in, err := BuildIntermediate(f, opts.Options)
	if err != nil {
		return nil, err
	}

	units := buildUnits(in, opts)
	results := make([][]NamedFile, len(units))
	err = runParallel(opts.Workers, len(units), func(i int) error {
		u := units[i]
		if files, ok := cache.lookup(u.key, u.hash); ok {
			results[i] = files
			return nil
		}
		files, err := u.build()
		if err != nil {
			return err
		}
		cache.store(u.key, u.hash, files)
		results[i] = files
		return nil
	})
	if err != nil {
		return nil, err
	}

	b := &Bundle{
		Intermediate: in,
		JSON:         map[string][]byte{},
		Manifests:    map[string][]byte{},
		objects:      map[string][]k8s.Object{},
	}
	for _, files := range results {
		for _, nf := range files {
			if strings.HasPrefix(nf.Name, "manifests/") {
				b.Manifests[nf.Name] = nf.Data
				b.objects[nf.Name] = nf.Objects
			} else {
				b.JSON[nf.Name] = nf.Data
			}
		}
	}
	b.Summary = summarize(f, in, b)
	return b, nil
}

// buildUnits splits the step-1 JSON encoding and step-2 manifest rendering
// into independent units: the embarrassing parallelism of the pipeline.
// Every unit hash folds in optsHash so that a namespace/image/port change
// invalidates the whole cache generation-wide.
func buildUnits(in *Intermediate, opts GenOptions) []genUnit {
	// Placement folds into the generation-wide hash: flipping a plant
	// between single-broker and federated changes every component's broker
	// address, so no cached unit may survive the switch.
	optsHash := hashUnit(opts.Namespace, opts.Images, opts.BrokerPort, in.Placement)
	brokerAddr := fmt.Sprintf("message-broker.%s.svc:%d", opts.Namespace, opts.BrokerPort)
	brokerAddrFor := func(shard int) string {
		if in.Placement == nil {
			return brokerAddr
		}
		return fmt.Sprintf("%s.%s.svc:%d", BrokerShardName(shard), opts.Namespace, opts.BrokerPort)
	}

	units := make([]genUnit, 0, 2+len(in.Machines)+len(in.Servers)+len(in.Clients)+len(in.Storage)+len(in.Monitors))

	type nsData struct {
		Namespace, Factory string
	}
	factoryName := sanitizeName(in.Factory)
	units = append(units, genUnit{
		key:  "namespace",
		hash: hashUnit(optsHash, factoryName),
		build: func() ([]NamedFile, error) {
			nf, err := manifestFile("00-namespace.yaml", namespaceTmpl,
				nsData{Namespace: opts.Namespace, Factory: factoryName})
			return wrapUnit(nf, err)
		},
	})
	if in.Placement == nil {
		units = append(units, genUnit{
			key:  "broker",
			hash: optsHash,
			build: func() ([]NamedFile, error) {
				nf, err := manifestFile("01-broker.yaml", brokerTmpl, map[string]any{
					"Namespace": opts.Namespace, "Images": opts.Images, "BrokerPort": opts.BrokerPort,
				})
				return wrapUnit(nf, err)
			},
		})
	} else {
		units = append(units, genUnit{
			key:  "placement",
			hash: hashUnit(optsHash, in.Placement),
			build: func() ([]NamedFile, error) {
				nf, err := jsonFile("placement.json", in.Placement)
				return wrapUnit(nf, err)
			},
		})
		for s := 0; s < in.Placement.Shards; s++ {
			shardCfg := BrokerShardConfig{
				Shard:     s,
				Shards:    in.Placement.Shards,
				Workcells: in.Placement.Workcells,
			}
			name := BrokerShardName(s)
			units = append(units, genUnit{
				key:  "broker/" + name,
				hash: hashUnit(optsHash, shardCfg),
				build: func() ([]NamedFile, error) {
					nf, err := manifestFile(fmt.Sprintf("01-%s.yaml", name), brokerShardTmpl, map[string]any{
						"Namespace": opts.Namespace, "Images": opts.Images,
						"BrokerPort": opts.BrokerPort, "Name": name, "Config": shardCfg,
					})
					return wrapUnit(nf, err)
				},
			})
		}
	}

	machinesByServer := map[string][]MachineConfig{}
	for _, mc := range in.Machines {
		machinesByServer[mc.Server] = append(machinesByServer[mc.Server], mc)
	}

	for i := range in.Machines {
		mc := in.Machines[i]
		units = append(units, genUnit{
			key:  "machine/" + mc.Machine,
			hash: hashUnit(optsHash, mc),
			build: func() ([]NamedFile, error) {
				nf, err := jsonFile("machines/"+sanitizeName(mc.Machine)+".json", mc)
				return wrapUnit(nf, err)
			},
		})
	}
	for i := range in.Servers {
		srv := in.Servers[i]
		hosted := machinesByServer[srv.Name]
		units = append(units, genUnit{
			key:  "server/" + srv.Name,
			hash: hashUnit(optsHash, srv, hosted),
			build: func() ([]NamedFile, error) {
				jf, err := jsonFile("servers/"+sanitizeName(srv.Name)+".json", srv)
				if err != nil {
					return nil, err
				}
				mf, err := manifestFile(fmt.Sprintf("10-%s.yaml", sanitizeName(srv.Name)), serverTmpl, map[string]any{
					"Namespace": opts.Namespace, "Images": opts.Images,
					"Server": srv, "Machines": hosted,
				})
				if err != nil {
					return nil, err
				}
				return []NamedFile{jf, mf}, nil
			},
		})
	}
	for i := range in.Clients {
		cc := in.Clients[i]
		units = append(units, genUnit{
			key:  "client/" + cc.Name,
			hash: hashUnit(optsHash, cc),
			build: func() ([]NamedFile, error) {
				jf, err := jsonFile("clients/"+sanitizeName(cc.Name)+".json", cc)
				if err != nil {
					return nil, err
				}
				mf, err := manifestFile(fmt.Sprintf("20-%s.yaml", sanitizeName(cc.Name)), clientTmpl, map[string]any{
					"Namespace": opts.Namespace, "Images": opts.Images,
					"Client": cc, "BrokerAddr": brokerAddrFor(cc.Shard),
				})
				if err != nil {
					return nil, err
				}
				return []NamedFile{jf, mf}, nil
			},
		})
	}
	for i := range in.Storage {
		st := in.Storage[i]
		units = append(units, genUnit{
			key:  "storage/" + st.Name,
			hash: hashUnit(optsHash, st),
			build: func() ([]NamedFile, error) {
				jf, err := jsonFile("storage/"+sanitizeName(st.Name)+".json", st)
				if err != nil {
					return nil, err
				}
				mf, err := manifestFile(fmt.Sprintf("30-%s.yaml", sanitizeName(st.Name)), historianTmpl, map[string]any{
					"Namespace": opts.Namespace, "Images": opts.Images,
					"Storage": st, "BrokerAddr": brokerAddrFor(st.Shard),
				})
				if err != nil {
					return nil, err
				}
				return []NamedFile{jf, mf}, nil
			},
		})
	}
	for i := range in.Monitors {
		mo := in.Monitors[i]
		units = append(units, genUnit{
			key:  "monitor/" + mo.Name,
			hash: hashUnit(optsHash, mo),
			build: func() ([]NamedFile, error) {
				jf, err := jsonFile("monitors/"+sanitizeName(mo.Name)+".json", mo)
				if err != nil {
					return nil, err
				}
				mf, err := manifestFile(fmt.Sprintf("40-%s.yaml", sanitizeName(mo.Name)), monitorTmpl, map[string]any{
					"Namespace": opts.Namespace, "Images": opts.Images,
					"Monitor": mo, "BrokerAddr": brokerAddrFor(mo.Shard),
				})
				if err != nil {
					return nil, err
				}
				return []NamedFile{jf, mf}, nil
			},
		})
	}
	return units
}

func wrapUnit(nf NamedFile, err error) ([]NamedFile, error) {
	if err != nil {
		return nil, err
	}
	return []NamedFile{nf}, nil
}

// manifestFile renders one manifest and runs the decode+validate sanity
// pass on it: everything emitted must be valid manifest YAML. The decoded
// objects stay with the file, so the pass is also the only decode of those
// bytes this process needs (Bundle.Objects). Cached units skip all of it —
// they were rendered, decoded and validated when first built.
func manifestFile(name string, t *template.Template, data any) (NamedFile, error) {
	out, err := render(t, data)
	if err != nil {
		return NamedFile{}, err
	}
	objs, err := k8s.Decode(out)
	if err != nil {
		return NamedFile{}, fmt.Errorf("codegen: generated %s does not parse: %w", name, err)
	}
	if err := k8s.Validate(objs); err != nil {
		return NamedFile{}, fmt.Errorf("codegen: generated %s invalid: %w", name, err)
	}
	return NamedFile{Name: "manifests/" + name, Data: out, Objects: objs}, nil
}

func summarize(f *core.Factory, in *Intermediate, b *Bundle) Summary {
	s := Summary{
		Servers:  len(in.Servers),
		Clients:  len(in.Clients),
		Monitors: len(in.Monitors),
		Machines: len(in.Machines),
	}
	// AllFiles is the single sorted iteration over both maps; the slice is
	// cached on the bundle, so the summary shares it with later callers.
	for _, nf := range b.AllFiles() {
		s.Files++
		if strings.HasPrefix(nf.Name, "manifests/") {
			s.YAMLBytes += len(nf.Data)
		} else {
			s.JSONBytes += len(nf.Data)
		}
	}
	s.ConfigBytes = s.JSONBytes + s.YAMLBytes
	s.Variables = f.TotalVariables()
	s.Services = f.TotalServices()
	return s
}

// Objects returns the decoded form of the manifest at path name (a key of
// Manifests): the objects the generator's own decode-and-validate pass read
// back from exactly those bytes, so a consumer in this process —
// deploy.Cluster.ApplyBundle, Reconfigure — need not parse the YAML again.
// The YAML stays the artefact; this is its already-validated reading.
//
// The objects are shared: with the unit cache, and through it with every
// bundle of an incremental series that contains the same unchanged unit.
// They are read-only — use the k8s.Object accessors and never write through
// Raw. Every Bundle comes from Generate or GenerateWithCache, which fill
// this in for every manifest; there is no decode-on-demand.
func (b *Bundle) Objects(name string) []k8s.Object { return b.objects[name] }

// AllFiles returns every generated file (JSON + manifests) sorted by path.
// The sorted slice is computed once and cached — callers must not modify
// the returned slice or the file contents.
func (b *Bundle) AllFiles() []NamedFile {
	b.allOnce.Do(func() {
		out := make([]NamedFile, 0, len(b.JSON)+len(b.Manifests))
		for name, data := range b.JSON {
			out = append(out, NamedFile{Name: name, Data: data})
		}
		for name, data := range b.Manifests {
			out = append(out, NamedFile{Name: name, Data: data})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		b.allFiles = out
	})
	return b.allFiles
}

// NamedFile pairs a generated file path with its contents. Objects is set on
// the manifests a generation unit builds — what Data decodes to — and is how
// the unit cache carries them from one run to the next.
type NamedFile struct {
	Name    string
	Data    []byte
	Objects []k8s.Object
}

// jsonFile encodes one step-1 artifact the way JSONFiles does.
func jsonFile(name string, v any) (NamedFile, error) {
	data, err := marshalJSONArtifact(name, v)
	if err != nil {
		return NamedFile{}, err
	}
	return NamedFile{Name: name, Data: data}, nil
}
