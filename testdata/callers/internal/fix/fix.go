// Package fix holds one case of each kind the deletion rule must tell
// apart. Local, Local.self, Offline.Run and Record.written are dead;
// everything else is live.
package fix

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
