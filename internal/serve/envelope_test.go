package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

// registeredCodes parses envelope.go and returns the Code* constant values
// — the frozen registry as written, not as compiled, so the AST walk below
// cannot drift from the source of truth.
func registeredCodes(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "envelope.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]string{} // const name -> string value
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Code") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				codes[name.Name] = val
			}
		}
	}
	if len(codes) == 0 {
		t.Fatal("no Code* constants found in envelope.go")
	}
	return codes
}

// TestNoUnregisteredErrorCodes walks every non-test file in the package
// and asserts each `Code:` field of an apiError composite literal is one
// of the registered Code* constants — no handler can invent a wire code
// the registry (and the OpenAPI enum) does not know about.
func TestNoUnregisteredErrorCodes(t *testing.T) {
	codes := registeredCodes(t)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Code" {
				return true
			}
			checked++
			id, ok := kv.Value.(*ast.Ident)
			if !ok {
				t.Errorf("%s: Code field is %T, not a registry constant",
					fset.Position(kv.Pos()), kv.Value)
				return true
			}
			if _, registered := codes[id.Name]; !registered {
				t.Errorf("%s: Code uses unregistered identifier %s",
					fset.Position(kv.Pos()), id.Name)
			}
			return true
		})
	}
	if checked < 10 {
		t.Fatalf("only %d Code: fields found; the AST walk is not seeing the handlers", checked)
	}
}

// TestRegistryStatusComplete: every registered code maps to a status, and
// the status table names only registered codes.
func TestRegistryStatusComplete(t *testing.T) {
	codes := registeredCodes(t)
	byValue := map[string]bool{}
	for name, val := range codes {
		byValue[val] = true
		if _, ok := errorCodeStatus[val]; !ok {
			t.Errorf("%s (%q) has no HTTP status mapping", name, val)
		}
	}
	for val := range errorCodeStatus {
		if !byValue[val] {
			t.Errorf("errorCodeStatus maps unregistered code %q", val)
		}
	}
	if got := statusFor(&apiError{Code: "no_such_code"}); got != http.StatusBadRequest {
		t.Errorf("unknown code degraded to %d, want 400", got)
	}
}

const legacyInlineJSON = `{"dev": {"k": 0.02, "v0": 0.5, "a": 1.6}, "vdd": 1.8, "n": 8, "l": 5e-9, "rise_time": 1e-9}`

// TestLegacyEnvelopeDeprecation: inline-parameter requests still work but
// are stamped with Deprecation/Sunset headers and counted; the canonical
// nested form and batches are not.
func TestLegacyEnvelopeDeprecation(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/maxssn", legacyInlineJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy inline request failed: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy inline response missing Deprecation: true")
	}
	if resp.Header.Get("Sunset") != legacySunset {
		t.Errorf("Sunset header %q, want %q", resp.Header.Get("Sunset"), legacySunset)
	}
	if n := s.metrics.value("ssnserve_legacy_envelope_total"); n != 1 {
		t.Errorf("legacy counter %d after one legacy request, want 1", n)
	}

	nested := `{"params": ` + legacyInlineJSON + `}`
	resp, body = postJSON(t, ts.URL+"/v1/maxssn", nested)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nested request failed: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Sunset") != "" {
		t.Error("nested envelope response carries deprecation headers")
	}

	batch := `{"items": [` + legacyInlineJSON + `]}`
	resp, body = postJSON(t, ts.URL+"/v1/maxssn", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch request failed: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Error("batch response carries deprecation headers")
	}
	if n := s.metrics.value("ssnserve_legacy_envelope_total"); n != 1 {
		t.Errorf("legacy counter %d after nested+batch requests, want still 1", n)
	}

	// The other enveloped endpoints share the decoder: spot-check waveform.
	resp, body = postJSON(t, ts.URL+"/v1/waveform", legacyInlineJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy waveform failed: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy waveform response missing Deprecation header")
	}
	if n := s.metrics.value("ssnserve_legacy_envelope_total"); n != 2 {
		t.Errorf("legacy counter %d, want 2", n)
	}

	// And the counter is exported.
	resp, body = postJSON(t, ts.URL+"/v1/maxssn", nested) // any request; then scrape
	_ = resp
	_ = body
	mresp, mbody := getURL(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	if !strings.Contains(string(mbody), "ssnserve_legacy_envelope_total 2") {
		t.Error("metrics exposition missing ssnserve_legacy_envelope_total")
	}
}
