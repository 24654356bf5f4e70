// Package fix holds one case of each kind the deletion rule must tell
// apart. Local, Local.self, Offline.Run, Record.written and Limits.Max are
// dead, and so are Scale's unused, Blank's second parameter and Record.Set's
// unused; everything else is live.
package fix

import (
	"errors"
	"net/http"
)

// Online and Offline share a method name; only Online's is called.
type Online struct{}

func (Online) Run() {}

type Offline struct{}

func (Offline) Run() {}

// Record's written field is stored into and never read.
type Record struct {
	written int
	Read    int
}

func (r *Record) Bump() {
	r.written++
	r.written = r.Read
}

// Limits.Max is read only by Limits' own Validate; Min is read by Clamp too.
type Limits struct{ Min, Max int }

func (l Limits) Validate() error {
	if l.Min > l.Max {
		return errors.New("fix: min above max")
	}
	return nil
}

func (l Limits) Clamp(v int) int { return max(v, l.Min) }

// Local is named only by its own method.
type Local struct{}

func (l Local) self() Local { return l }

// Runner's one caller reaches Job.Exec only through the interface.
type Runner interface{ Exec() }

type Job struct{}

func (Job) Exec() {}

// Doc's implementations are marshaled through an interface-typed value,
// which is the only read of Report.Total.
type Doc interface{ Kind() string }

type Report struct{ Total int }

func (Report) Kind() string { return "report" }

// Shown's one caller is the root's runnable example.
func Shown() {}

// Scale is called directly and never reads unused.
func Scale(x, unused int) int { return 2 * x }

// Blank's second parameter has no name to read it by.
func Blank(x int, _ string) int { return x }

// Hook ignores unused too, but its one caller stores it in a func-typed
// variable, whose type fixes the signature.
func Hook(x, unused int) int { return x }

// Set is called directly and never reads unused.
func (r *Record) Set(v, unused int) { r.written = v }

// Drop.Put is reached through Sink, which fixes its signature.
type Sink interface{ Put(v int) }

type Drop struct{}

func (Drop) Put(v int) {}

// Page.ServeHTTP is reached through the standard library's http.Handler,
// so the request it ignores stays.
type Page struct{}

func (Page) ServeHTTP(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }
