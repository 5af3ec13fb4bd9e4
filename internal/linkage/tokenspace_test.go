package linkage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"explain3d/internal/relation"
)

// TestTranslateTokens checks the joint-space token lists of dictionary
// strings: case folding, sorted distinct ids, a repeated token kept once,
// a tokenless string cached as a non-nil empty list, and a dictionary left
// as it was (token strings are never interned into it).
func TestTranslateTokens(t *testing.T) {
	d := relation.NewDict()
	a := d.Intern("Computer Science")
	b := d.Intern("COMPUTER lab")
	rep := d.Intern("go go go")
	empty := d.Intern("---")
	ts := newTokenSpace()
	dc := &dictCache{d: d}
	toks := ts.translate(dc, a)
	if len(toks) != 2 || toks[0] >= toks[1] {
		t.Fatalf("translate(Computer Science) = %v, want 2 sorted distinct ids", toks)
	}
	lab := ts.translate(dc, b)
	if len(lab) != 2 {
		t.Fatalf("translate(COMPUTER lab) = %v, want 2 ids", lab)
	}
	if shared := sharedCount(toks, lab); shared != 1 {
		t.Fatalf("Computer Science and COMPUTER lab share %d ids, want 1 (case folding)", shared)
	}
	if got := ts.internWords(Tokenize("COMPUTER")); len(got) != 1 || !slices.Contains(toks, got[0]) {
		t.Fatalf("internWords(COMPUTER) = %v, want one id of %v", got, toks)
	}
	if got := ts.translate(dc, rep); len(got) != 1 {
		t.Fatalf("translate(go go go) = %v, want one id", got)
	}
	if got := ts.translate(dc, empty); got == nil || len(got) != 0 {
		t.Fatalf("translate(---) = %v, want a non-nil empty list", got)
	}
	if dc.rowToks[empty] == nil {
		t.Fatal("empty token list not cached")
	}
	if again := ts.translate(dc, a); &again[0] != &toks[0] {
		t.Fatal("second translate of one code re-tokenized it")
	}
	if got := ts.size(); got != 4 {
		t.Fatalf("joint space holds %d tokens, want 4 (computer, science, lab, go)", got)
	}
	if got := d.Len(); got != 4 {
		t.Fatalf("dictionary grew to %d strings, want 4", got)
	}
}

// TestTranslateConcurrentReadersAndWriters translates codes of one
// dictionary into one joint token space from several goroutines, each with
// its own cache, while others intern fresh strings into the dictionary and
// translate those: the pattern of concurrent scans against one Index over
// a live dataset dictionary. Every word must get one joint id across all
// goroutines. Run under -race.
func TestTranslateConcurrentReadersAndWriters(t *testing.T) {
	d := relation.NewDict()
	words := make([]string, 200)
	codes := make([]uint32, len(words))
	for i := range words {
		words[i] = fmt.Sprintf("token soup number %d", i)
		codes[i] = d.Intern(words[i])
	}
	ts := newTokenSpace()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			dc := &dictCache{d: d}
			for i := 0; i < 500; i++ {
				j := (i + w) % len(codes)
				if toks := ts.translate(dc, codes[j]); len(toks) != 4 {
					t.Errorf("translate(%q) = %v, want 4 tokens", words[j], toks)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			dc := &dictCache{d: d}
			for i := 0; i < 500; i++ {
				c := d.Intern(fmt.Sprintf("writer w%d round r%d", w, i))
				if got := ts.translate(dc, c); len(got) != 4 {
					t.Errorf("translate(new %d) = %v, want 4 tokens", c, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	dc := &dictCache{d: d}
	soup := ts.translate(dc, codes[0])
	for _, c := range codes[1:] {
		if got := sharedCount(soup, ts.translate(dc, c)); got != 3 {
			t.Fatalf("%q shares %d joint ids with %q, want 3 (token, soup, number)", d.String(c), got, words[0])
		}
	}
	// token, soup, number and 0..199; writer, w0..w3, round and r0..r499.
	if got, want := ts.size(), 3+200+1+4+1+500; got != want {
		t.Fatalf("joint space holds %d tokens, want %d", got, want)
	}
}
