// Command lazyxml is an interactive driver for a lazy XML database: it
// loads an XML file (or starts empty) and accepts update and query
// commands on standard input.
//
// Usage:
//
//	lazyxml [-mode ld|ls] [-attrs] [-values] [-restore] [-journal dir]
//	        [file.xml]
//
// Commands:
//
//	insert <offset> <fragment>   insert a segment at a byte offset
//	append <fragment>            insert at the end of the super document
//	remove <offset> <length>     remove a byte range (whole elements)
//	rmel <offset>                remove the element starting at offset
//	query <path>                 evaluate a//b/c-style path expressions
//	count <path>                 like query, print only the cardinality
//	twig <path>                  holistic evaluation, full tuples per match
//	pattern <expr>               twig patterns with predicates, e.g.
//	                             person[name='Ann']//watch (needs -values
//	                             for value predicates, -attrs for @attr)
//	collapse <sid>               pack a segment subtree into one segment
//	stats                        segments/elements/log sizes
//	text                         print the super document
//	check                        verify index consistency against the text
//	rebuild                      collapse into a single segment
//	save <file>                  write the super document to a file
//	snapshot <file>              persist the full store (log + index)
//	compact                      fold the journal into a snapshot (-journal)
//	help                         this list
//	quit
//
// Pass -restore to load a snapshot instead of an XML file.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	lazyxml "repro"
)

func main() {
	mode := flag.String("mode", "ld", "maintenance mode: ld (lazy dynamic) or ls (lazy static)")
	restore := flag.Bool("restore", false, "treat the file argument as a snapshot, not XML")
	attrs := flag.Bool("attrs", false, "index attributes as @name pseudo-elements")
	values := flag.Bool("values", false, "index element/attribute values for equality predicates")
	journal := flag.String("journal", "", "directory of a durable journaled database (WAL + snapshot)")
	flag.Parse()

	var m lazyxml.Mode
	switch strings.ToLower(*mode) {
	case "ld":
		m = lazyxml.LD
	case "ls":
		m = lazyxml.LS
	default:
		fmt.Fprintf(os.Stderr, "lazyxml: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	var opts []lazyxml.Option
	if *attrs {
		opts = append(opts, lazyxml.WithAttributes())
	}
	if *values {
		opts = append(opts, lazyxml.WithValues())
	}

	var db *lazyxml.DB
	var jdb *lazyxml.JournaledDB
	if *journal != "" {
		var err error
		jdb, err = lazyxml.OpenJournal(*journal, m, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lazyxml:", err)
			os.Exit(1)
		}
		defer jdb.Close()
		db = jdb.DB
		fmt.Printf("journaled database %s: %d bytes, %d elements, %d segments\n",
			*journal, db.Len(), db.Stats().Elements, db.Segments())
	} else if flag.NArg() > 0 {
		var err error
		if *restore {
			db, err = lazyxml.RestoreFile(flag.Arg(0), opts...)
		} else {
			db, err = lazyxml.OpenFile(flag.Arg(0), m, opts...)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lazyxml:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s: %d bytes, %d elements, %d segments\n",
			flag.Arg(0), db.Len(), db.Stats().Elements, db.Segments())
	} else {
		db = lazyxml.Open(m, opts...)
		fmt.Println("empty database; use insert/append to add segments")
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var up updater = db
		if jdb != nil {
			up = jdb
		}
		if err := run(db, up, jdb, strings.ToLower(cmd), rest); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// updater routes structural updates either straight to the DB or through
// the write-ahead journal.
type updater interface {
	Insert(gp int, fragment []byte) (lazyxml.SID, error)
	Append(fragment []byte) (lazyxml.SID, error)
	Remove(gp, l int) error
	RemoveElementAt(gp int) error
}

func run(db *lazyxml.DB, up updater, jdb *lazyxml.JournaledDB, cmd, rest string) error {
	switch cmd {
	case "quit", "exit":
		return errQuit
	case "help":
		fmt.Println("insert <offset> <fragment> | append <fragment> | remove <offset> <length> |",
			"rmel <offset> | query <path> | count <path> | twig <path> | pattern <expr> |",
			"segments | collapse <sid> | stats | text | check | rebuild |",
			"save <file> | snapshot <file> | compact | quit")
	case "insert":
		offStr, frag, ok := strings.Cut(rest, " ")
		if !ok {
			return fmt.Errorf("usage: insert <offset> <fragment>")
		}
		off, err := strconv.Atoi(offStr)
		if err != nil {
			return err
		}
		sid, err := up.Insert(off, []byte(strings.TrimSpace(frag)))
		if err != nil {
			return err
		}
		fmt.Printf("segment %d inserted at %d\n", sid, off)
	case "append":
		if rest == "" {
			return fmt.Errorf("usage: append <fragment>")
		}
		sid, err := up.Append([]byte(rest))
		if err != nil {
			return err
		}
		fmt.Printf("segment %d appended\n", sid)
	case "remove":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return fmt.Errorf("usage: remove <offset> <length>")
		}
		off, err1 := strconv.Atoi(fields[0])
		l, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("offset and length must be integers")
		}
		if err := up.Remove(off, l); err != nil {
			return err
		}
		fmt.Printf("removed [%d,%d)\n", off, off+l)
	case "rmel":
		off, err := strconv.Atoi(rest)
		if err != nil {
			return err
		}
		if err := up.RemoveElementAt(off); err != nil {
			return err
		}
		fmt.Printf("removed element at %d\n", off)
	case "query":
		ms, err := db.Query(rest)
		if err != nil {
			return err
		}
		for i, m := range ms {
			if i == 20 {
				fmt.Printf("... %d more\n", len(ms)-20)
				break
			}
			fmt.Printf("anc [%d,%d) seg %d  desc [%d,%d) seg %d\n",
				m.AncStart, m.AncEnd, m.Anc.SID, m.DescStart, m.DescEnd, m.Desc.SID)
		}
		fmt.Printf("%d match(es)\n", len(ms))
	case "count":
		n, err := db.Count(rest)
		if err != nil {
			return err
		}
		fmt.Println(n)
	case "twig":
		ts, err := db.QueryTwig(rest)
		if err != nil {
			return err
		}
		for i, tu := range ts {
			if i == 20 {
				fmt.Printf("... %d more\n", len(ts)-20)
				break
			}
			for j, nd := range tu {
				if j > 0 {
					fmt.Print(" > ")
				}
				fmt.Printf("[%d,%d)", nd.Start, nd.End)
			}
			fmt.Println()
		}
		fmt.Printf("%d tuple(s)\n", len(ts))
	case "pattern":
		ts, err := db.QueryPattern(rest)
		if err != nil {
			return err
		}
		fmt.Printf("%d match(es)\n", len(ts))
	case "collapse":
		sid, err := strconv.Atoi(rest)
		if err != nil {
			return err
		}
		newSID, err := db.Collapse(lazyxml.SID(sid))
		if err != nil {
			return err
		}
		fmt.Printf("collapsed into segment %d; %d segment(s) total\n", newSID, db.Segments())
	case "stats":
		st := db.Stats()
		fmt.Printf("mode %v, %d bytes, %d segments, %d elements, %d tags\n",
			st.Mode, st.TextLen, st.Segments, st.Elements, st.Tags)
		fmt.Printf("update log: SB-tree %.1f KB, tag-list %.1f KB; element index %.1f KB\n",
			float64(st.SBTreeBytes)/1024, float64(st.TagListBytes)/1024, float64(st.ElemIdxBytes)/1024)
		fmt.Printf("%d insert(s), %d remove(s)\n", st.Inserts, st.Removes)
	case "segments":
		fmt.Print(db.DumpSegments())
	case "text":
		text, err := db.Text()
		if err != nil {
			return err
		}
		fmt.Println(string(text))
	case "check":
		if err := db.CheckConsistency(); err != nil {
			return err
		}
		fmt.Println("consistent")
	case "rebuild":
		if err := db.Rebuild(); err != nil {
			return err
		}
		fmt.Printf("rebuilt: %d segment(s)\n", db.Segments())
	case "save":
		if rest == "" {
			return fmt.Errorf("usage: save <file>")
		}
		if err := db.SaveFile(rest); err != nil {
			return err
		}
		fmt.Println("saved", rest)
	case "compact":
		if jdb == nil {
			return fmt.Errorf("compact requires -journal mode")
		}
		if err := jdb.Compact(); err != nil {
			return err
		}
		fmt.Println("journal compacted into snapshot")
	case "snapshot":
		if rest == "" {
			return fmt.Errorf("usage: snapshot <file>")
		}
		if err := db.SnapshotFile(rest); err != nil {
			return err
		}
		fmt.Println("snapshot written to", rest)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}
