package main

import (
	"encoding/json"
	"fmt"

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
}
