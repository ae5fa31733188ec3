package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"m3"
	"m3/internal/infimnist"
	"m3/internal/mat"
)

// oracleResult is what the encoding/json decode the server used
// before its own parser made of a body: the HTTP status it gave (200
// when it would have submitted the rows) and the rows it would have
// submitted.
type oracleResult struct {
	status  int
	vals    []float64
	n, cols int
	// off is how far the decoder read: it stops after the first value.
	off int64
}

// oracleDecode is that decode, kept as the differential oracle for the
// server's parser.
func oracleDecode(body []byte, inputCols int) oracleResult {
	var req struct {
		Rows [][]float64 `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil || len(req.Rows) == 0 {
		return oracleResult{status: http.StatusBadRequest}
	}
	o := oracleResult{n: len(req.Rows), cols: len(req.Rows[0]), off: dec.InputOffset()}
	if inputCols > 0 && o.cols != inputCols {
		return oracleResult{status: http.StatusBadRequest}
	}
	for _, row := range req.Rows {
		if len(row) != o.cols {
			return oracleResult{status: http.StatusBadRequest}
		}
		o.vals = append(o.vals, row...)
	}
	o.status = http.StatusOK
	return o
}

// stricter lists every input class the server refuses (400) although
// encoding/json accepted it. The parser's error names the class, and
// holds confirms that the body really is of it.
var stricter = []struct {
	err    string
	reason string
	holds  func(body []byte, o oracleResult) bool
}{
	{
		err:    "data after the top-level object",
		reason: "json.Decoder stops after the first value and never looks at the rest of the body",
		holds: func(body []byte, o oracleResult) bool {
			return len(bytes.TrimLeft(body[o.off:], " \t\r\n")) > 0
		},
	},
	{
		err: "is null",
		reason: "encoding/json decodes a null row as an empty row and a null value as 0 " +
			"(or as the value a duplicate \"rows\" left there)",
		holds: func(body []byte, _ oracleResult) bool { return bytes.Contains(body, []byte("null")) },
	},
	{
		err: "row 0 has no values",
		reason: "encoding/json yields a matrix of zero columns, which a model with no fixed width " +
			"would be handed",
		holds: func(_ []byte, o oracleResult) bool { return o.cols == 0 },
	},
}

// recordModel is a fake m3.Model that keeps a copy of the last matrix
// it was asked to predict.
type recordModel struct {
	mu      sync.Mutex
	vals    []float64
	n, cols int
	called  bool
}

func (m *recordModel) Predict([]float64) float64 { return 0 }

func (m *recordModel) PredictMatrix(x *mat.Dense) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n, m.cols, m.vals, m.called = x.Rows(), x.Cols(), nil, true
	for i := range m.n {
		m.vals = append(m.vals, x.RawRow(i)...)
	}
	return make([]float64, m.n), nil
}

func (m *recordModel) Save(string) error { return nil }

// take returns what the model last received and forgets it.
func (m *recordModel) take() (vals []float64, n, cols int, called bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vals, n, cols, called = m.vals, m.n, m.cols, m.called
	m.vals, m.n, m.cols, m.called = nil, 0, 0, false
	return
}

// infimnistBody renders rows [0, n) of a generated Infimnist table as
// the benchmark's predict body: compact JSON, full-precision values.
func infimnistBody(tb testing.TB, n int) []byte {
	tb.Helper()
	x, _ := infimnist.Generator{Seed: 3}.Matrix(0, int64(n))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = x[i*infimnist.Features : (i+1)*infimnist.Features]
	}
	body, err := json.Marshal(map[string][][]float64{"rows": rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// nested is a body whose skipped member "x" holds containers depth
// levels deep (the body's object is level 0).
func nested(depth int) []byte {
	return []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"rows":[[1,2]]}`)
}

func predictSeeds(tb testing.TB) [][]byte {
	one, eight := infimnistBody(tb, 1), infimnistBody(tb, 8)
	var indented bytes.Buffer
	if err := json.Indent(&indented, infimnistBody(tb, 2), "\r\n", " \t"); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{one, eight, indented.Bytes(), one[:len(one)/2]}
	for _, s := range []string{
		// whitespace
		" \t\r\n{ \"rows\" : [ [ 1 , 2 ] , [3,4] ] } \n",
		`{"rows":[[1,2]]}` + "\n\n",
		`{"rows":[[1` + "\x0c" + `,2]]}`,
		// key forms
		`{"Rows":[[1,2]]}`, `{"ROWS":[[1,2]]}`, `{"rows":[[1,2]]}`, `{"rowſ":[[1,2]]}`,
		`{"rows":[[1,2]]}`, `{"rOwſ":[[1,2]]}`, `{"\rows":[[1,2]]}`,
		`{"row":[[1,2]]}`, `{"rowsx":[[1,2]]}`, `{"\ud800ows":[[1,2]]}`, `{"😀":1,"rows":[[1,2]]}`,
		// unknown members of every type, nested
		`{"a":1,"b":"x\"y\\z\/\b\f\n\r\té","c":true,"d":false,"e":null,"f":[1,[2,{"g":[]}]],` +
			`"h":{"i":{"j":[{},{"k":-1.5e3}]}},"rows":[[1,2]],"z":[]}`,
		`{"a":{"rows":[[9,9]]},"rows":[[1,2]]}`,
		`{"a":[1,]}`, `{"a":{"b"}}`, `{"a":{"b":1,}}`, `{"a":tru,"rows":[[1,2]]}`, `{"a":nul}`,
		`{"a":[1 2],"rows":[[1,2]]}`, `{"a":"\x"}`, `{"a":"\u12"}`, `{"a":01,"rows":[[1,2]]}`,
		// duplicate rows: the last one wins
		`{"rows":[[1,2,3]],"rows":[[4,5]]}`, `{"rows":[[1,2]],"ROWS":[[3,4],[5,6]]}`,
		`{"rows":[[1,2]],"rows":null}`, `{"rows":[[1,2]],"rows":[]}`, `{"rows":5,"rows":[[1,2]]}`,
		`{"rows":[[1,2],[3,4]],"rows":[[5,6]]}`,
		// null everywhere
		`null`, `{"rows":null}`, `{"rows":[null]}`, `{"rows":[null,null]}`, `{"rows":[[1,2],null]}`,
		`{"rows":[[1,null]]}`, `{"rows":[[1,2]],"rows":[[3,null]]}`, `{"rows":[[null,null]]}`,
		// numbers JSON has
		`{"rows":[[-0,0]]}`, `{"rows":[[1E+2,1e-2]]}`, `{"rows":[[5e-324,-5e-324]]}`,
		`{"rows":[[1e400,1]]}`, `{"rows":[[-1e400,1]]}`, `{"rows":[[1e-400,1]]}`,
		`{"rows":[[1.7976931348623157e308,0.1]]}`, `{"rows":[[123456789012345678901234567890,2]]}`,
		`{"rows":[[0.30000000000000004,2.2250738585072014e-308]]}`,
		// forms ParseFloat takes and JSON does not
		`{"rows":[[Inf,1]]}`, `{"rows":[[-Inf,1]]}`, `{"rows":[[NaN,1]]}`, `{"rows":[[infinity,1]]}`,
		`{"rows":[[0x1p3,1]]}`, `{"rows":[[+1,1]]}`, `{"rows":[[.5,1]]}`, `{"rows":[[1.,1]]}`,
		`{"rows":[[01,1]]}`, `{"rows":[[1_0,1]]}`, `{"rows":[[1e,1]]}`, `{"rows":[[-,1]]}`, `{"rows":[[1e+,1]]}`,
		// not numbers, not rows
		`{"rows":[["1",2]]}`, `{"rows":[[true,false]]}`, `{"rows":[[[1],2]]}`, `{"rows":[[{},2]]}`,
		`{"rows":[1,2]}`, `{"rows":["a"]}`, `{"rows":[{}]}`, `{"rows":{}}`, `{"rows":"x"}`, `{"rows":true}`,
		// shapes
		`{"rows":[[1,2],[3]]}`, `{"rows":[[1],[2,3]]}`, `{"rows":[[1,2],[]]}`, `{"rows":[[1,2,3]]}`,
		`{"rows":[[1]]}`, `{"rows":[]}`, `{"rows":[[]]}`, `{"rows":[[],[]]}`, `{}`, `[]`, `[[1,2]]`, `"rows"`, `1`, ``,
		// truncation, BOM, control characters
		`{"rows":[[1,2]`, `{"rows":[[1,2`, `{"rows":[[1,`, `{"rows":`, `{"rows"`, `{"ro`, `{`,
		"\xef\xbb\xbf" + `{"rows":[[1,2]]}`,
		`{"ro` + "\x01" + `ws":1,"rows":[[1,2]]}`, `{"a":"` + "\x1f" + `","rows":[[1,2]]}`,
		`{"a":"` + "\xff\xfe" + `","rows":[[1,2]]}`,
		// trailing data
		`{"rows":[[1,2]]}x`, `{"rows":[[1,2]]} {}`, `{"rows":[[1,2]]}}`, `{"rows":[[1,2]],}`, `{,"rows":[[1,2]]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	// encoding/json's depth limit, from both sides.
	return append(seeds, nested(maxDepth-1), nested(maxDepth),
		[]byte(strings.Repeat(`{"a":`, maxDepth-1)+"1"+strings.Repeat("}", maxDepth-1)),
		[]byte(strings.Repeat(`{"a":`, maxDepth)+"1"+strings.Repeat("}", maxDepth)))
}

// FuzzPredictHandler posts each body through Server.Handler() and
// compares what the model received with the encoding/json oracle: the
// same status, the same shape, the same bits of every value. The
// server may only be stricter, and only as the stricter table says.
func FuzzPredictHandler(f *testing.F) {
	reg := NewRegistry()
	models := []struct {
		name  string
		cols  int
		model *recordModel
	}{{"any", 0, &recordModel{}}, {"w2", 2, &recordModel{}}}
	for _, m := range models {
		reg.Set(m.name, NewSnapshot(m.model, m3.ModelInfo{Kind: "fake", InputCols: m.cols}, "", nil))
	}
	srv := NewServer(reg, Config{BatchSize: 1})
	f.Cleanup(func() {
		srv.Drain()
		reg.Close()
	})
	for _, s := range predictSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, m := range models {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/models/"+m.name+"/predict", bytes.NewReader(body)))
			vals, n, cols, called := m.model.take()
			want := oracleDecode(body, m.cols)
			if called != (rec.Code == http.StatusOK) {
				t.Fatalf("%s: status %d, model called: %v", m.name, rec.Code, called)
			}
			switch {
			case rec.Code == want.status && rec.Code != http.StatusOK:
			case rec.Code == http.StatusOK && want.status == http.StatusOK:
				if n != want.n || cols != want.cols || len(vals) != len(want.vals) {
					t.Fatalf("%s: model got %dx%d (%d values), encoding/json %dx%d", m.name, n, cols, len(vals), want.n, want.cols)
				}
				for i := range vals {
					if math.Float64bits(vals[i]) != math.Float64bits(want.vals[i]) {
						t.Fatalf("%s: value %d is %v (%#x), encoding/json %v (%#x)", m.name, i,
							vals[i], math.Float64bits(vals[i]), want.vals[i], math.Float64bits(want.vals[i]))
					}
				}
			case rec.Code == http.StatusBadRequest && want.status == http.StatusOK:
				if !isStricterCase(body, rec.Body.String(), want) {
					t.Fatalf("%s: refused %q (%s), which encoding/json accepted as %dx%d",
						m.name, truncate(body), rec.Body.String(), want.n, want.cols)
				}
			default:
				t.Fatalf("%s: status %d (%s), encoding/json %d", m.name, rec.Code, rec.Body.String(), want.status)
			}
		}
	})
}

// isStricterCase reports whether a refusal is one the stricter table
// allows for this body.
func isStricterCase(body []byte, reply string, o oracleResult) bool {
	for _, c := range stricter {
		if strings.Contains(reply, c.err) && c.holds(body, o) {
			return true
		}
	}
	return false
}

func truncate(b []byte) string {
	if len(b) > 80 {
		return string(b[:80]) + "…"
	}
	return string(b)
}

// hostileServer serves one fake two-column model named "m".
func hostileServer(t *testing.T) (*Server, *Entry) {
	t.Helper()
	reg := NewRegistry()
	e := newEntry(t, reg, "m", &constModel{val: 1}, 2)
	srv := NewServer(reg, Config{BatchSize: 1})
	t.Cleanup(func() {
		srv.Drain()
		reg.Close()
	})
	return srv, e
}

func servePredict(srv *Server, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, r)
	return rec
}

// TestPredictDeepMemberRefused: a skipped member nested 100 000 deep is
// a 400 at encoding/json's depth, found without a stack frame per
// level — the goroutine's stack is capped far below what recursion to
// 10 000 levels would need.
func TestPredictDeepMemberRefused(t *testing.T) {
	srv, _ := hostileServer(t)
	body := nested(100_000)
	defer debug.SetMaxStack(debug.SetMaxStack(128 << 10))
	rec := servePredict(srv, httptest.NewRequest(http.MethodPost, "/models/m/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "nesting deeper than 10000") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPredictLyingContentLength: a request that claims 60 MiB and
// sends 20 bytes costs far less than what it claims.
func TestPredictLyingContentLength(t *testing.T) {
	srv, _ := hostileServer(t)
	body := `{"rows": [[1, 2], [3`
	if len(body) != 20 {
		t.Fatalf("body is %d bytes", len(body))
	}
	r := httptest.NewRequest(http.MethodPost, "/models/m/predict", strings.NewReader(body))
	r.ContentLength = 60 << 20
	r.Header.Set("Content-Length", fmt.Sprint(r.ContentLength))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := servePredict(srv, r)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("allocated %d bytes for a 20-byte body", d)
	}
}

// endless yields spaces forever.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestPredictBodyTooLarge: a body past maxBodyBytes is a 400, whatever
// it would have parsed to.
func TestPredictBodyTooLarge(t *testing.T) {
	srv, _ := hostileServer(t)
	r := httptest.NewRequest(http.MethodPost, "/models/m/predict",
		io.MultiReader(strings.NewReader(`{"rows":[[1,2],`), endless{}))
	rec := servePredict(srv, r)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// slowBody sleeps before it yields its bytes.
type slowBody struct {
	r     io.Reader
	delay time.Duration
}

func (s *slowBody) Read(p []byte) (int, error) {
	if s.delay > 0 {
		time.Sleep(s.delay)
		s.delay = 0
	}
	return s.r.Read(p)
}

// TestPredictLatencyIncludesDecode: the latency /metrics reports runs
// from the handler's entry, so reading and decoding the body count.
func TestPredictLatencyIncludesDecode(t *testing.T) {
	srv, e := hostileServer(t)
	const delay = 20 * time.Millisecond
	r := httptest.NewRequest(http.MethodPost, "/models/m/predict",
		&slowBody{r: strings.NewReader(`{"rows":[[1,2]]}`), delay: delay})
	if rec := servePredict(srv, r); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := e.Metrics().Snapshot().LatencyMs.P50; got < float64(delay)/float64(time.Millisecond) {
		t.Fatalf("recorded latency %.3f ms, body took %v to arrive", got, delay)
	}
}

// BenchmarkParsePredict decodes the serve benchmark's request bodies:
// one and eight full-precision Infimnist rows.
func BenchmarkParsePredict(b *testing.B) {
	reg := NewRegistry()
	defer reg.Close()
	e := reg.Set("m", NewSnapshot(&constModel{}, m3.ModelInfo{Kind: "fake", InputCols: infimnist.Features}, "", nil))
	for _, n := range []int{1, 8} {
		body := infimnistBody(b, n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rd := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/models/m/predict", rd)
			w := httptest.NewRecorder()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				rd.Reset(body)
				r.Body = io.NopCloser(rd)
				if _, herr := parsePredict(r, w, e); herr != nil {
					b.Fatal(herr)
				}
			}
		})
	}
}
