package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkRecommendCacheHit serves one repeated /v1/recommend through
// ServeHTTP: after the first request every answer is a hit in the epoch's
// shared recommender cache, so allocs/op is the front end's own cost —
// decode, the epoch lookup, encode — with no kernel under it.
func BenchmarkRecommendCacheHit(b *testing.B) {
	srv := New(testLibrary(b), nil)
	const body = `{"activity": ["potatoes", "carrots"], "strategy": "focus-cmp", "k": 5}`
	serve := func() {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
