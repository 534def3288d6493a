package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
)

// Shape fixes the size of a generated Aware-Home-shaped policy. Every
// workload derives its policy from one Shape and the run's seed; the
// program under test sees only what these generators produce.
type Shape struct {
	Subjects int
	Objects  int
	Grants   int
}

// Role tree sizes: 4 roots, 3 children each, 4 grandchildren per child
// gives 64 subject and 64 object roles; environment roles stop at depth
// two (4 roots, 12 leaves, 16 in all).
const (
	roleRoots       = 4
	roleChildren    = 3
	roleGrandkids   = 4
	envRoots        = 4
	envChildren     = 3
	sceneCount      = 8   // distinct explicit environment sets requests carry
	denyShare       = 0.1 // share of grants that are deny rules
	anyTxShare      = 0.1 // share of grants on every transaction
	credShare       = 0.1 // share of requests that carry sensor credentials
	liveEnvShare    = 0.2 // share of requests the environment engine resolves
	zipfS           = 1.2 // skew of subjects and objects in the skewed pools
	sensorSource    = "smart-floor"
	canarySubjectA  = "canary-a"
	canarySubjectB  = "canary-b"
	canaryObject    = "canary-obj"
	canaryRole      = "canary-role"
	canaryRoleB     = "canary-role-b"
	canaryObjRole   = "canary-orole"
	canaryTx        = "use"
	canaryFixedDesc = "canary: always-on grant for canary-role-b"
)

// sensorConfidences are the paper's sensor accuracies (§5.2).
var sensorConfidences = []float64{0.75, 0.90, 0.98}

var transactions = []core.TransactionID{"use", "read", "write", "open", "close", "configure", "view", "record"}

// EnvDef defines one leaf environment role as "attribute Key equals on".
type EnvDef struct {
	Role core.RoleID
	Key  string
}

// Entity is a subject or object with its directly assigned roles.
type Entity struct {
	ID    string
	Roles []core.RoleID
}

// Policy is the generated policy: roles with hierarchies for all three
// kinds, entities, grants (some of them deny rules), the environment
// engine's role definitions and the sensor attributes it reads.
type Policy struct {
	Roles        []core.Role
	Transactions []core.TransactionID
	Subjects     []Entity
	Objects      []Entity
	Grants       []core.Permission
	EnvDefs      []EnvDef
	// SensorsOn lists the attributes set to "on"; the rest read "off".
	SensorsOn []string
	// Scenes are the explicit environment sets requests may carry.
	Scenes [][]core.RoleID
}

// roleTree returns the IDs of a roots/children/grandchildren tree with
// prefix, grouped by depth, plus the Role values with parents set.
func roleTree(prefix string, kind core.RoleKind, roots, children, grandkids int) (levels [3][]core.RoleID, roles []core.Role) {
	n := 0
	next := func(parent core.RoleID, depth int) core.RoleID {
		id := core.RoleID(fmt.Sprintf("%s-%02d", prefix, n))
		n++
		r := core.Role{ID: id, Kind: kind}
		if parent != "" {
			r.Parents = []core.RoleID{parent}
		}
		roles = append(roles, r)
		levels[depth] = append(levels[depth], id)
		return id
	}
	for i := 0; i < roots; i++ {
		root := next("", 0)
		for j := 0; j < children; j++ {
			child := next(root, 1)
			for k := 0; k < grandkids; k++ {
				next(child, 2)
			}
		}
	}
	return levels, roles
}

// pickLevel draws a role, choosing the depth first: roots 30%, middle
// 40%, leaves 30%, so grants cover broad and narrow role sets alike.
func pickLevel(rng *rand.Rand, levels [3][]core.RoleID) core.RoleID {
	var lv []core.RoleID
	switch x := rng.Float64(); {
	case x < 0.3:
		lv = levels[0]
	case x < 0.7 || len(levels[2]) == 0:
		lv = levels[1]
	default:
		lv = levels[2]
	}
	return lv[rng.Intn(len(lv))]
}

// pickAssigned draws 1 or 2 distinct roles from the middle and leaf levels.
func pickAssigned(rng *rand.Rand, levels [3][]core.RoleID) []core.RoleID {
	pool := append(append([]core.RoleID(nil), levels[1]...), levels[2]...)
	a := pool[rng.Intn(len(pool))]
	if rng.Intn(2) == 0 {
		return []core.RoleID{a}
	}
	b := pool[rng.Intn(len(pool))]
	if b == a {
		return []core.RoleID{a}
	}
	return []core.RoleID{a, b}
}

// GeneratePolicy builds the policy for shape from seed.
func GeneratePolicy(seed int64, sh Shape) *Policy {
	rng := rand.New(rand.NewSource(seed))
	p := &Policy{Transactions: append([]core.TransactionID(nil), transactions...)}

	subLv, subRoles := roleTree("sr", core.SubjectRole, roleRoots, roleChildren, roleGrandkids)
	objLv, objRoles := roleTree("or", core.ObjectRole, roleRoots, roleChildren, roleGrandkids)
	envLv, envRoles := roleTree("er", core.EnvironmentRole, envRoots, envChildren, 0)
	p.Roles = append(append(append(p.Roles, subRoles...), objRoles...), envRoles...)

	for i, r := range envLv[1] {
		key := fmt.Sprintf("sensor-%02d", i)
		p.EnvDefs = append(p.EnvDefs, EnvDef{Role: r, Key: key})
		if rng.Intn(2) == 0 {
			p.SensorsOn = append(p.SensorsOn, key)
		}
	}
	for i := 0; i < sceneCount; i++ {
		n := 1 + rng.Intn(3)
		set := map[core.RoleID]bool{}
		for len(set) < n {
			set[envLv[1][rng.Intn(len(envLv[1]))]] = true
		}
		scene := make([]core.RoleID, 0, n)
		for r := range set {
			scene = append(scene, r)
		}
		sort.Slice(scene, func(a, b int) bool { return scene[a] < scene[b] })
		p.Scenes = append(p.Scenes, scene)
	}

	for i := 0; i < sh.Subjects; i++ {
		p.Subjects = append(p.Subjects, Entity{ID: fmt.Sprintf("subj-%05d", i), Roles: pickAssigned(rng, subLv)})
	}
	for i := 0; i < sh.Objects; i++ {
		p.Objects = append(p.Objects, Entity{ID: fmt.Sprintf("obj-%04d", i), Roles: pickAssigned(rng, objLv)})
	}

	seen := map[core.Permission]bool{}
	for len(p.Grants) < sh.Grants {
		g := core.Permission{
			Subject:     pickLevel(rng, subLv),
			Object:      pickLevel(rng, objLv),
			Transaction: transactions[rng.Intn(len(transactions))],
			Effect:      core.Permit,
		}
		if rng.Float64() < anyTxShare {
			g.Transaction = core.AnyTransaction
		}
		if rng.Intn(4) == 0 {
			g.Environment = envLv[0][rng.Intn(len(envLv[0]))]
		} else {
			g.Environment = envLv[1][rng.Intn(len(envLv[1]))]
		}
		switch x := rng.Float64(); {
		case x < denyShare:
			g.Effect = core.Deny
		case x < denyShare+0.1:
			g.MinConfidence = 0.8
		case x < denyShare+0.2:
			g.MinConfidence = 0.95
		}
		key := g
		key.MinConfidence, key.Effect = 0, 0
		if seen[key] {
			continue
		}
		seen[key] = true
		p.Grants = append(p.Grants, g)
	}
	return p
}

// Apply loads the policy into sys through its public mutators.
func (p *Policy) Apply(sys *core.System) error {
	for _, r := range p.Roles {
		if err := sys.AddRole(core.Role{ID: r.ID, Kind: r.Kind}); err != nil {
			return fmt.Errorf("add role %s: %w", r.ID, err)
		}
	}
	for _, r := range p.Roles {
		for _, parent := range r.Parents {
			if err := sys.AddRoleParent(r.Kind, r.ID, parent); err != nil {
				return fmt.Errorf("role parent %s: %w", r.ID, err)
			}
		}
	}
	for _, tx := range p.Transactions {
		if err := sys.AddTransaction(core.SimpleTransaction(string(tx))); err != nil {
			return fmt.Errorf("add transaction %s: %w", tx, err)
		}
	}
	for _, s := range p.Subjects {
		if err := sys.AddSubject(core.SubjectID(s.ID)); err != nil {
			return fmt.Errorf("add subject %s: %w", s.ID, err)
		}
		for _, r := range s.Roles {
			if err := sys.AssignSubjectRole(core.SubjectID(s.ID), r); err != nil {
				return fmt.Errorf("assign %s: %w", s.ID, err)
			}
		}
	}
	for _, o := range p.Objects {
		if err := sys.AddObject(core.ObjectID(o.ID)); err != nil {
			return fmt.Errorf("add object %s: %w", o.ID, err)
		}
		for _, r := range o.Roles {
			if err := sys.AssignObjectRole(core.ObjectID(o.ID), r); err != nil {
				return fmt.Errorf("assign %s: %w", o.ID, err)
			}
		}
	}
	for _, g := range p.Grants {
		if err := sys.Grant(g); err != nil {
			return fmt.Errorf("grant: %w", err)
		}
	}
	return nil
}

// NewEngine builds the environment engine the policy's live-environment
// requests resolve against: leaf roles defined over sensor attributes,
// with the attributes set once, so the active set is fixed for the run.
func (p *Policy) NewEngine() *environment.Engine {
	st := environment.NewStore()
	on := map[string]bool{}
	for _, k := range p.SensorsOn {
		on[k] = true
	}
	for _, d := range p.EnvDefs {
		v := "off"
		if on[d.Key] {
			v = "on"
		}
		st.Set(d.Key, environment.String(v))
	}
	eng := environment.NewEngine(st)
	for _, d := range p.EnvDefs {
		// Define fails only on a duplicate role, which the generator
		// never produces.
		_ = eng.Define(d.Role, environment.AttrEquals{Key: d.Key, Value: environment.String("on")})
	}
	return eng
}

// AddCanaries adds the entities the propagation workload's edits flip:
// two canary subjects, a canary object, and a permanent grant for
// canary-role-b, so assigning that role to canary-b flips its answer.
// Nothing in the request pools names them, so edits never change the
// answer to a pooled request.
func (p *Policy) AddCanaries() {
	p.Roles = append(p.Roles,
		core.Role{ID: canaryRole, Kind: core.SubjectRole},
		core.Role{ID: canaryRoleB, Kind: core.SubjectRole},
		core.Role{ID: canaryObjRole, Kind: core.ObjectRole})
	p.Subjects = append(p.Subjects,
		Entity{ID: canarySubjectA, Roles: []core.RoleID{canaryRole}},
		Entity{ID: canarySubjectB})
	p.Objects = append(p.Objects, Entity{ID: canaryObject, Roles: []core.RoleID{canaryObjRole}})
	p.Grants = append(p.Grants, core.Permission{
		Subject: canaryRoleB, Object: canaryObjRole, Environment: core.AnyEnvironment,
		Transaction: canaryTx, Effect: core.Permit, Description: canaryFixedDesc,
	})
}

// Item is one generated decision request. Env nil means the server's
// environment engine resolves the environment.
type Item struct {
	Subject string
	Object  string
	Tx      core.TransactionID
	Env     []core.RoleID
	Creds   core.CredentialSet
}

// Request converts the item to a core request.
func (it Item) Request() core.Request {
	return core.Request{
		Subject: core.SubjectID(it.Subject), Object: core.ObjectID(it.Object),
		Transaction: it.Tx, Environment: it.Env, Credentials: it.Creds,
	}
}

// zipfPerm draws Zipf ranks over n entities and maps each rank through a
// seeded permutation, so the hot entities are scattered over the ID space
// (and over shards) rather than being the lowest IDs.
type zipfPerm struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPerm(rng *rand.Rand, n int) *zipfPerm {
	return &zipfPerm{z: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfPerm) next() int { return z.perm[z.z.Uint64()] }

// PoolOptions selects how a request pool is drawn.
type PoolOptions struct {
	Size int
	// Uniform draws every tuple uniformly at random. Otherwise the pool
	// draws uniformly from Templates distinct requests whose subjects and
	// objects are Zipf-skewed: hot subjects and objects recur across many
	// templates, the working set is Templates requests, and no single
	// request's cost dominates the run.
	Uniform   bool
	Templates int
	// LiveEnv is the share of requests that leave the environment to the
	// server's engine; the SDK pool sets 0, since only explicit
	// environments are evaluable in-process.
	LiveEnv float64
}

// GeneratePool draws a request pool over the policy's generated subjects
// and objects (canaries excluded).
func GeneratePool(seed int64, p *Policy, subjects, objects int, o PoolOptions) []Item {
	rng := rand.New(rand.NewSource(seed))
	var zs, zo *zipfPerm
	n := o.Size
	if !o.Uniform {
		zs, zo = newZipfPerm(rng, subjects), newZipfPerm(rng, objects)
		n = o.Templates
	}
	items := make([]Item, n)
	for i := range items {
		var si, oi int
		if o.Uniform {
			si, oi = rng.Intn(subjects), rng.Intn(objects)
		} else {
			si, oi = zs.next(), zo.next()
		}
		sub := p.Subjects[si]
		it := Item{Subject: sub.ID, Object: p.Objects[oi].ID, Tx: transactions[rng.Intn(len(transactions))]}
		if rng.Float64() >= o.LiveEnv {
			it.Env = p.Scenes[rng.Intn(len(p.Scenes))]
		}
		if rng.Float64() < credShare {
			it.Creds = core.CredentialSet{
				core.IdentityCredential(core.SubjectID(sub.ID), sensorConfidences[rng.Intn(len(sensorConfidences))], sensorSource),
				core.RoleCredential(sub.Roles[rng.Intn(len(sub.Roles))], sensorConfidences[rng.Intn(len(sensorConfidences))], sensorSource),
			}
		}
		items[i] = it
	}
	if o.Uniform {
		return items
	}
	pool := make([]Item, o.Size)
	for i := range pool {
		pool[i] = items[rng.Intn(len(items))]
	}
	return pool
}

// OpKind is the HTTP decision endpoint one generated operation calls.
type OpKind uint8

const (
	OpDecide OpKind = iota
	OpCheck
	OpBatch
)

// batchSize is the item count of every /v1/decide/batch operation.
const batchSize = 16

// Op is one decision operation: an endpoint and how many pool items
// it asks about (1, or batchSize for a batch).
type Op struct {
	Kind OpKind
	N    int
}

// GenerateOps draws a cyclic operation stream: checkShare of operations
// are /v1/check, batchShare are 16-item batches, the rest /v1/decide.
func GenerateOps(seed int64, n int, checkShare, batchShare float64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		switch x := rng.Float64(); {
		case x < batchShare:
			ops[i] = Op{Kind: OpBatch, N: batchSize}
		case x < batchShare+checkShare:
			ops[i] = Op{Kind: OpCheck, N: 1}
		default:
			ops[i] = Op{Kind: OpDecide, N: 1}
		}
	}
	return ops
}

// Script is one simulated user's session: log in, activate roles, issue
// session-scoped decides, log out.
type Script struct {
	Subject string
	// Activate[i] is the role activated before session decide i, or "".
	Activate []core.RoleID
	Items    []Item
}

// sessionDecides is the number of session-scoped decides per script.
const sessionDecides = 8

// GenerateScripts draws n session scripts over the policy's subjects:
// one role activated before the first decide and, for half the users, a
// second one before the fifth.
func GenerateScripts(seed int64, p *Policy, n int) []Script {
	rng := rand.New(rand.NewSource(seed))
	zs := newZipfPerm(rng, len(p.Subjects))
	zo := newZipfPerm(rng, len(p.Objects))
	out := make([]Script, n)
	for i := range out {
		sub := p.Subjects[zs.next()]
		sc := Script{Subject: sub.ID, Activate: make([]core.RoleID, sessionDecides)}
		perm := rng.Perm(len(sub.Roles))
		sc.Activate[0] = sub.Roles[perm[0]]
		if len(sub.Roles) > 1 {
			sc.Activate[sessionDecides/2] = sub.Roles[perm[1]]
		}
		for k := 0; k < sessionDecides; k++ {
			sc.Items = append(sc.Items, Item{
				Subject: sub.ID, Object: p.Objects[zo.next()].ID,
				Tx:  transactions[rng.Intn(len(transactions))],
				Env: p.Scenes[rng.Intn(len(p.Scenes))],
			})
		}
		out[i] = sc
	}
	return out
}
