package lazyxml_test

import (
	"bytes"
	"fmt"
	"log"

	lazyxml "repro"
)

// The basic lifecycle: open, edit by offset, query by path.
func Example() {
	db := lazyxml.Open(lazyxml.LD)
	if _, err := db.Append([]byte("<library><shelf></shelf></library>")); err != nil {
		log.Fatal(err)
	}
	// Offset 16 is just after "<library><shelf>".
	if _, err := db.Insert(16, []byte("<book><title>Lazy</title></book>")); err != nil {
		log.Fatal(err)
	}
	n, _ := db.Count("shelf//title")
	fmt.Println(n)
	// Output: 1
}

// Path queries pair the last two steps; QueryTwig returns whole tuples.
func ExampleDB_QueryTwig() {
	db := lazyxml.Open(lazyxml.LD)
	db.Append([]byte("<a><b><c/></b></a>"))
	tuples, _ := db.QueryTwig("a//b/c")
	for _, tu := range tuples {
		for i, nd := range tu {
			if i > 0 {
				fmt.Print(" contains ")
			}
			fmt.Printf("[%d,%d)", nd.Start, nd.End)
		}
		fmt.Println()
	}
	// Output: [0,18) contains [3,14) contains [6,10)
}

// Twig patterns add existential and value predicates.
func ExampleDB_QueryPattern() {
	db := lazyxml.Open(lazyxml.LD, lazyxml.WithValues(), lazyxml.WithAttributes())
	db.Append([]byte(`<people>` +
		`<person id="p1"><name>Ann</name><phone>1</phone></person>` +
		`<person id="p2"><name>Bob</name><phone>2</phone></person>` +
		`</people>`))
	n, _ := db.CountPattern("person[name='Ann']/phone")
	fmt.Println(n)
	n, _ = db.CountPattern("person[@id='p2']/phone")
	fmt.Println(n)
	// Output:
	// 1
	// 1
}

// Snapshots carry the whole store — update log included — across
// restarts.
func ExampleDB_Snapshot() {
	db := lazyxml.Open(lazyxml.LS)
	db.Append([]byte("<a><b/></a>"))

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		log.Fatal(err)
	}
	restored, err := lazyxml.Restore(&buf)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := restored.Count("a/b")
	fmt.Println(n, restored.Segments())
	// Output: 1 1
}

// Collections scope queries to named documents.
func ExampleNewCollection() {
	c := lazyxml.NewCollection(lazyxml.LD)
	c.Put("x", []byte("<doc><item/></doc>"))
	c.Put("y", []byte("<doc><item/><item/></doc>"))
	all, _ := c.Query("doc/item")
	inY, _ := c.CountDoc("y", "doc/item")
	fmt.Println(len(all), inY)
	// Output: 3 2
}
