package plan

import "testing"

// FuzzParse feeds arbitrary text to the PaceQL parser: it never panics, and
// a query it accepts gets a sink and compiles without panicking. The seeds
// are the queries the plan and paceql tests parse, accepted and refused.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"SELECT * FROM traffic WHERE speed >= 50 AND segment != 3",
		"SELECT speed, segment FROM traffic",
		"SELECT speed, segment FROM traffic WHERE speed >= 50",
		"SELECT segment, AVG(speed) AS mean FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts",
		"SELECT segment, AVG(speed) FROM traffic WHERE speed >= 50 GROUP BY segment WINDOW 1 MINUTE ON ts",
		"SELECT segment, COUNT(*) FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts",
		"SELECT segment, MAX(speed) FROM traffic GROUP BY segment WINDOW 30 SECONDS SLIDE 10 SECONDS ON ts",
		"SELECT segment, AVG(speed) AS mean FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION BY segment INTO 3",
		"SELECT segment, AVG(speed) FROM s GROUP BY segment WINDOW 1 MINUTE ON ts PARTITION BY speed INTO 2",
		"SELECT * FROM stream1 UNION stream2 WITH PACE ON MAX(stream1.ts, stream2.ts) 1 MINUTE",
		"SELECT * FROM a UNION b",
		"SELECT * FROM s WHERE speed >= 0",
		"SELECT * FROM s WHERE segment = 'x'",
		"SELECT",
		"SELECT * FROM s WHERE speed ~ 1",
		"SELECT * FROM s UNION s WITH PACE ON ts 1 FORTNIGHT",
		"SELECT * FROM s trailing",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		cat := Catalog{}
		for _, name := range []string{"traffic", "s", "a", "b", "stream1", "stream2"} {
			cat[name] = testSource(name)
		}
		b, s, err := Parse(q, cat)
		if err != nil {
			return
		}
		s.Collect("sink")
		b.Compile()
	})
}
