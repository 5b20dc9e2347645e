package query

import (
	"testing"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

func benchCorpus(b *testing.B) *table.Corpus {
	b.Helper()
	c := table.NewCorpus()
	rel := table.MustNewRelation("GED", "Index", []string{"2016", "2017"})
	if err := rel.AddRow("PGElecDemand", []float64{21546, 22209}); err != nil {
		b.Fatal(err)
	}
	if err := c.Add(rel); err != nil {
		b.Fatal(err)
	}
	return c
}

func benchQuery() *Query {
	return &Query{
		Select: expr.MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "PGElecDemand"},
			{Alias: "b", Relation: "GED", Key: "PGElecDemand"},
		},
		AttrBindings: map[string]string{"A1": "2017", "A2": "2016"},
	}
}

func BenchmarkRenderSQL(b *testing.B) {
	q := benchQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.SQL()
	}
}

func BenchmarkParseSQL(b *testing.B) {
	sql := benchQuery().SQL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
