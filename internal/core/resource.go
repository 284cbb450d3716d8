// Package core implements ROOT: Resource-Oriented Ordering for Trace
// replay (§3 of the paper).
//
// A trace is a totally-ordered series of actions; each action touches
// one or more resources (threads, files, paths, file descriptors, AIO
// control blocks). The series of actions touching a resource, in trace
// order, is the resource's action series. Three rules over action
// series yield a partial order for replay:
//
//   - stage ordering: a resource's create action replays before any use,
//     and every use replays before its delete;
//   - sequential ordering: all actions on a resource replay in trace
//     order (subsumes stage);
//   - name ordering: action series of consecutive generations of the
//     same name neither overlap nor reorder.
//
// Names are reused over time — descriptor 3 may identify many different
// open files during one trace — so resources are identified by
// name@generation.
//
// The package analyzes a trace against a symbolic file-system model
// (symlink-aware, directory-rename-aware) to infer action↔resource
// relationships, then builds the dependency graph a replayer enforces.
package core

import (
	"fmt"
	"strconv"
)

// Kind classifies resources (§4.2, Table 2). It is one byte wide, like
// Role, so that a Touch carrying both is 8 bytes.
type Kind uint8

// Resource kinds.
const (
	KProgram Kind = iota
	KThread
	KFile
	KPath
	KFD
	KAIO
)

var kindNames = [...]string{KProgram: "program", KThread: "thread", KFile: "file", KPath: "path", KFD: "fd", KAIO: "aiocb"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return string(k.append(nil))
}

// append appends the kind's name, "Kind(n)" for an unknown one.
func (k Kind) append(b []byte) []byte {
	if int(k) < len(kindNames) {
		return append(b, kindNames[k]...)
	}
	return append(strconv.AppendUint(append(b, "Kind("...), uint64(k), 10), ')')
}

// ResourceID identifies one resource: a kind, a name, and a generation
// distinguishing successive uses of the same name (fd3@1 vs fd3@2 in
// Figure 2).
type ResourceID struct {
	Kind Kind
	Name string
	Gen  int
}

// String renders "kind(name)@gen" in one exact-size allocation (kind and
// generation go to stack buffers the concatenation reads in place).
func (r ResourceID) String() string {
	var kind, gen [20]byte
	return string(r.Kind.append(kind[:0])) + "(" + r.Name + ")@" + string(strconv.AppendInt(gen[:0], int64(r.Gen), 10))
}

// Role is an action's relationship to a resource it touches.
type Role uint8

// Roles within an action series.
const (
	// RoleUse is an ordinary access.
	RoleUse Role = iota
	// RoleCreate brings the resource into existence.
	RoleCreate
	// RoleDelete removes the resource.
	RoleDelete
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleUse:
		return "use"
	case RoleCreate:
		return "create"
	case RoleDelete:
		return "delete"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Touch is one action↔resource relationship. It names the resource by
// Idx, its position in Analysis.Resources, which is the only place the
// resource's name and generation are kept: the analyzer numbers
// resources densely in first-touch order and the binary codec stores
// touches by that number, so consumers index slices by it. Kind repeats
// Resources[Idx].Kind, so the passes that pick touches by kind do not
// read the resource table once per touch. A Touch holds no pointer.
type Touch struct {
	Idx  int32
	Kind Kind
	Role Role
}

// ModeSet selects which ordering rules apply to which resource kinds —
// ARTC's replay modes (Table 2). Thread sequential ordering is always
// enforced structurally (one replay thread per traced thread) and has no
// flag; path stage and name ordering apply only jointly, because stage
// without name ordering would require substitute path names during
// replay (§4.2, "Paths").
type ModeSet struct {
	// ProgramSeq totally orders the whole trace: the strongest mode,
	// subsuming all others, typically causing severe overconstraint.
	ProgramSeq bool
	// FileSeq sequentially orders all actions touching each file, found
	// through any path or descriptor (symlink- and hard-link-aware).
	FileSeq bool
	// PathStageName applies stage + name ordering to path resources.
	PathStageName bool
	// FDStage applies stage ordering to file descriptors.
	FDStage bool
	// FDSeq applies sequential ordering to file descriptors (subsumes
	// FDStage).
	FDSeq bool
	// AIOStage applies stage ordering to AIO control blocks.
	AIOStage bool
}

// DefaultModes returns ARTC's default-on constraint set: everything
// supported except program_seq (§4.2).
func DefaultModes() ModeSet {
	return ModeSet{
		FileSeq:       true,
		PathStageName: true,
		FDStage:       true,
		FDSeq:         true,
		AIOStage:      true,
	}
}

// Subsumes reports whether mode set a allows only orderings that b also
// allows (a is at least as constrained as b) based on rule subsumption:
// program_seq subsumes everything; fd_seq subsumes fd_stage.
func (a ModeSet) Subsumes(b ModeSet) bool {
	if a.ProgramSeq {
		return true
	}
	if b.ProgramSeq {
		return false
	}
	ge := func(x, y bool) bool { return x || !y }
	return ge(a.FileSeq, b.FileSeq) &&
		ge(a.PathStageName, b.PathStageName) &&
		ge(a.FDSeq, b.FDSeq) &&
		ge(a.FDStage || a.FDSeq, b.FDStage || b.FDSeq) &&
		ge(a.AIOStage, b.AIOStage)
}
