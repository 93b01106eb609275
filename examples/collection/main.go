// Multi-document collection with attribute/value predicates: several
// named XML documents live in one lazy database (the paper's "whole XML
// database ... organized with a tree or many sub-trees" as one super
// document), with queries over everything or scoped to one document.
// Twig patterns with predicates are a database-level feature, so they
// run on a DB holding the same documents.
//
//	go run ./examples/collection
package main

import (
	"fmt"
	"log"

	lazyxml "repro"
)

func main() {
	opts := []lazyxml.Option{lazyxml.WithAttributes(), lazyxml.WithValues()}
	c := lazyxml.NewCollection(lazyxml.LD, opts...)
	db := lazyxml.Open(lazyxml.LD, opts...)

	docs := map[string]string{
		"catalog": `<catalog>` +
			`<book id="b1"><title>Lazy Updates</title><price>30</price></book>` +
			`<book id="b2"><title>Structural Joins</title><price>45</price></book>` +
			`</catalog>`,
		"orders": `<orders>` +
			`<order no="1"><item ref="b1"/><qty>2</qty></order>` +
			`<order no="2"><item ref="b2"/><qty>1</qty></order>` +
			`</orders>`,
		"customers": `<customers>` +
			`<customer><name>Ann</name><city>Oslo</city></customer>` +
			`<customer><name>Bob</name><city>Bergen</city></customer>` +
			`</customers>`,
	}
	for name, text := range docs {
		if err := c.Put(name, []byte(text)); err != nil {
			log.Fatal(err)
		}
		if _, err := db.Append([]byte(text)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("collection: %v (%d documents, %d segments)\n",
		c.Names(), c.Len(), c.Stats().Segments)

	// Collection-wide vs document-scoped queries.
	all, _ := c.Query("book//title")
	fmt.Printf("book//title everywhere: %d\n", len(all))
	n, _ := c.CountDoc("catalog", "book//title")
	fmt.Printf("book//title in catalog: %d\n", n)
	n, _ = c.CountDoc("orders", "book//title")
	fmt.Printf("book//title in orders:  %d\n", n)

	// Value and attribute predicates (twig patterns).
	for _, expr := range []string{
		"book[@id='b1']/title",
		"customer[city='Oslo']/name",
		"order[qty='2']/item",
	} {
		n, err := db.CountPattern(expr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s -> %d\n", expr, n)
	}

	// Updates stay per-document: add a book, delete the orders document.
	if _, err := c.Insert("catalog", len("<catalog>"),
		[]byte(`<book id="b3"><title>BOXes</title><price>28</price></book>`)); err != nil {
		log.Fatal(err)
	}
	if err := c.Delete("orders"); err != nil {
		log.Fatal(err)
	}
	n, _ = c.CountDoc("catalog", "catalog/book")
	fmt.Printf("\nafter updates: %d books, documents %v\n", n, c.Names())

	if err := c.CheckConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("consistency check: ok")
}
