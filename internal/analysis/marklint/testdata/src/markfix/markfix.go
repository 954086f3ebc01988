// Package markfix seeds malformed //hepccl: directives for the marklint
// fixture suite: unknown verbs (a typo, and the retired spsc and const),
// directives anchored to the wrong node kind, and the same mark applied twice
// to one function and one field — plus well-formed directives of every class
// that must stay silent.
package markfix

import "sync/atomic"

// hot is correctly marked: the directive sits in the doc comment.
//
//hepccl:hotpath
func hot(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}

// cold is correctly marked via the line above the declaration.

//hepccl:coldpath
func cold() {}

// stmts carries correctly placed statement directives.
func stmts(s []int, i int) int {
	//hepccl:checked i is the caller's cursor, already wrapped to len(s).
	t := s[i]
	//hepccl:amortized
	grow := append(s, t)
	//hepccl:coldpath
	report(grow)
	return t
}

func report([]int) {}

// pool is a correctly marked pool struct: type and field directives in the
// positions their analyzers read them from.
//
//hepccl:pool
type pool struct {
	wake chan struct{} //hepccl:wake
	done chan struct{} //hepccl:done
	//hepccl:cursor
	next atomic.Int64
}

// typo's verb is not in the registry.
//
//hepccl:hotpth // want `unknown //hepccl: directive verb "hotpth"`
func typo() {}

// retired carries the two verbs that left the vocabulary with the lock-free
// ring they described.
//
//hepccl:spsc // want `unknown //hepccl: directive verb "spsc"`
type retired struct {
	//hepccl:const // want `unknown //hepccl: directive verb "const"`
	mask uint32
}

// wrongClass carries a type directive on a function declaration.
//
//hepccl:pool // want `misplaced //hepccl:pool directive: it anchors nothing here and must mark a struct type's doc comment`
func wrongClass() {}

// inBody misuses a function directive on a statement.
func inBody(s []int) int {
	//hepccl:hotpath // want `misplaced //hepccl:hotpath directive: it anchors nothing here and must mark a function declaration`
	t := s[0]
	//hepccl:cursor // want `misplaced //hepccl:cursor directive: it anchors nothing here and must mark a struct field`
	u := s[1]
	return t + u
}

//hepccl:amortized // want `misplaced //hepccl:amortized directive: it anchors nothing here and must mark a statement`
var sink int

// dup carries the same function directive twice.
//
//hepccl:hotpath
//hepccl:hotpath
func dup() {} // want `duplicate //hepccl:hotpath directive on func dup`

// dupField doubles a field directive in doc and trailing positions.
type dupField struct {
	//hepccl:accounted
	n atomic.Uint64 //hepccl:accounted // want `duplicate //hepccl:accounted directive on field dupField.n`
}

var _ = hot
var _ = cold
var _ = stmts
var _ = typo
var _ = wrongClass
var _ = inBody
var _ = dup
var _ = dupField{}
var _ = pool{}
var _ = retired{}
var _ = sink
