package rcm_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rcm/eventsim"
	"rcm/eventsim/lifetime"
	"rcm/fault"
	"rcm/internal/figures"
	"rcm/internal/registry"
	"rcm/node"
	"rcm/spec"
)

// flagValues resolves the value of each documented flag that names a
// registrant. The flag names are unambiguous across the six binaries.
var flagValues = map[string]func(value string) bool{
	"protocol":  func(v string) bool { _, ok := registry.Protocols.Lookup(v); return ok },
	"geometry":  func(v string) bool { _, ok := registry.Geometries.Lookup(v); return ok || v == "all" },
	"scenario":  func(v string) bool { _, ok := eventsim.LookupScenario(v); return ok },
	"fig":       func(v string) bool { return v == "all" || slices.Contains(figures.Names(), v) },
	"transport": func(v string) bool { _, err := eventsim.ParseTransport(v); return err == nil },
	"fault":     func(v string) bool { _, err := fault.Parse(v); return err == nil },
	"store":     func(v string) bool { _, err := node.ParseStore(v); return err == nil },
	"lifetime": func(v string) bool {
		name, _ := spec.Split(v) // a trace:<file> value names a family, not a file that exists here
		_, ok := lifetime.Lookup(name)
		return ok
	},
}

// TestDocsNameOnlyWhatExists: every cmd/<name>, scripts/<file> and
// bench/<file> path the instructions mention must exist, so deleting a
// tool cannot leave a README, Makefile, CI or skill line, or a command's
// package doc, pointing at nothing; and every -flag on a command line
// that starts with a cmd/
// binary's name — a whole line, or a backticked span — must be declared
// (as a "flag" literal) in that binary's source; and the value after a
// flag that names a registrant (flagValues) must resolve in its registry,
// so renaming a protocol, scenario or figure fails here instead of
// leaving a documented command line that exits 1.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	ref := regexp.MustCompile(`(?m)(?:^|[^\w/.])(?:\./)?((?:cmd|scripts|bench)/[\w.-]+)`)
	span := regexp.MustCompile("`[^`]+`")
	flagTok := regexp.MustCompile(`^--?([a-zA-Z][\w-]*)`)
	sources := map[string]string{} // cmd name → its non-test Go source
	mains, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mains {
		if src, err := os.ReadFile(f); err == nil && !strings.HasSuffix(f, "_test.go") {
			sources[filepath.Base(filepath.Dir(f))] += string(src)
		}
	}
	docs := map[string]string{}
	for _, doc := range []string{"README.md", "Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[doc] = string(raw)
	}
	for _, f := range mains {
		if filepath.Base(f) != "main.go" {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		docs[f] = file.Doc.Text()
	}
	for doc, text := range docs {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(strings.TrimRight(m[1], ".")); err != nil {
				t.Errorf("%s names %s: %v", doc, m[1], err)
			}
		}

		// Join continuation lines and drop fence markers (whose odd
		// backticks would mispair the spans); fenced lines stay.
		text = strings.NewReplacer("\\\n", " ", "```", "").Replace(text)
		lines := strings.Split(text, "\n")
		for _, s := range span.FindAllString(text, -1) {
			lines = append(lines, strings.Trim(s, "`"))
		}
		for _, line := range lines {
			toks := strings.Fields(line)
			for len(toks) > 0 && (toks[0] == "$" || toks[0] == "go" || toks[0] == "run") {
				toks = toks[1:]
			}
			if len(toks) == 0 {
				continue
			}
			name := strings.TrimPrefix(strings.TrimPrefix(toks[0], "./"), "cmd/")
			if sources[name] == "" {
				continue // not a command line of ours
			}
			for i, tok := range toks[1:] {
				if strings.ContainsAny(tok[:1], "|>&;#") {
					break // the rest belongs to the shell
				}
				m := flagTok.FindStringSubmatch(tok)
				if m == nil {
					continue
				}
				if !strings.Contains(sources[name], `"`+m[1]+`"`) {
					t.Errorf("%s: `%s` passes -%s, which cmd/%s does not declare", doc, strings.Join(toks, " "), m[1], name)
				}
				// The value is the next token, or follows "=" in this one.
				_, value, inline := strings.Cut(tok, "=")
				if rest := toks[i+2:]; !inline && len(rest) > 0 {
					value = rest[0]
				}
				value = strings.TrimRight(value, ".,;)") // prose around a span
				if resolves := flagValues[m[1]]; resolves != nil && !resolves(value) {
					t.Errorf("%s: `%s` passes -%s %s, which no registrant answers to", doc, strings.Join(toks, " "), m[1], value)
				}
			}
		}
	}
}
