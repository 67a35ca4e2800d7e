package wire

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/wal"
)

// TestPublishRejectsOversizedPoint: a point with more dimensions than
// the durable log can encode is a protocol error at ingest — on every
// server, durable or not — instead of something that reaches (and
// poisons) a WAL. The connection survives the rejection.
func TestPublishRejectsOversizedPoint(t *testing.T) {
	for name, start := range map[string]func(*testing.T) (*Server, string){
		"plain":   startServer,
		"durable": startDurableServer,
	} {
		t.Run(name, func(t *testing.T) {
			_, addr := start(t)
			cli, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			big := make(geometry.Point, wal.MaxPointDims+1)
			if _, err := cli.Publish(big, []byte("x")); err == nil {
				t.Fatalf("publish with %d dimensions succeeded", len(big))
			} else if !strings.Contains(err.Error(), "dimensions") {
				t.Fatalf("publish with %d dimensions: %v, want a dimension-bound protocol error", len(big), err)
			}

			// The connection is still usable, and a well-formed publish
			// round trips.
			if _, err := cli.Publish(geometry.Point{1}, []byte("ok")); err != nil {
				t.Fatalf("publish after rejection: %v", err)
			}
		})
	}
}

// TestSubscribeRejectsOversizedRect: a rectangle with more dimensions
// than a publication's point may have is refused by the broker, and the
// server reports that as an error reply; the connection survives it.
func TestSubscribeRejectsOversizedRect(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Unbounded intervals keep the frame small: each dimension is "{}".
	wide := make(geometry.Rect, wal.MaxPointDims+1)
	for i := range wide {
		wide[i] = geometry.NewInterval(math.Inf(-1), math.Inf(1))
	}
	if _, err := cli.Subscribe(wide); err == nil {
		t.Fatalf("subscribe with %d dimensions succeeded", len(wide))
	} else if !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("subscribe with %d dimensions: %v, want a dimension-bound error reply", len(wide), err)
	}
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatalf("subscribe after rejection: %v", err)
	}
}
