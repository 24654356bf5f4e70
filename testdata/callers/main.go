package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fixture/internal/fix"
)

func main() {
	fix.Online{}.Run()
	var offline fix.Offline
	_ = offline
	r := &fix.Record{Read: 1}
	r.Bump()
	var run fix.Runner = fix.Job{}
	run.Exec()
	var doc fix.Doc = fix.Report{Total: 2}
	out, _ := json.Marshal(doc)
	fmt.Println(string(out), doc.Kind())
	r.Set(fix.Scale(1, 2), fix.Blank(3, "x"))
	var hook func(int, int) int = fix.Hook
	var sink fix.Sink = fix.Drop{}
	sink.Put(hook(4, 5))
	http.Handle("/", fix.Page{})
}
