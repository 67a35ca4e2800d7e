package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

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

// TestSubscribeRefusalsOnEitherDecoder sends raw subscribe frames that
// a server must refuse, each twice: in the canonical layout, which the
// fast decoder reads when the frame is valid JSON, and with one space
// added, which only json.Unmarshal reads. Both get the same reply. A
// rectangle the broker cannot take, and a body that is not JSON at all,
// draw an error reply and leave the connection publishing.
func TestSubscribeRefusalsOnEitherDecoder(t *testing.T) {
	_, addr := startServer(t)
	tooWide := strings.Repeat(`{"lo":null,"hi":null},`, wal.MaxPointDims+1)
	tooWide = tooWide[:len(tooWide)-1]
	for _, tc := range []struct {
		name, rects string
		fast        bool   // the canonical frame takes the fast decoder
		reply       string // the error reply
	}{
		{"empty-interval", `[[{"lo":5,"hi":5}]]`, true, "wire: dimension 0 is empty: (5, 5]"},
		{"inverted-interval", `[[{"lo":0,"hi":1},{"lo":3,"hi":-2}]]`, true, "wire: dimension 1 is empty: (3, -2]"},
		{"no-rects", `[]`, false, "broker: subscription needs at least one rectangle"},
		{"empty-rect", `[[]]`, false, "wire: empty rectangle"},
		{"too-many-dims", `[[` + tooWide + `]]`, true,
			fmt.Sprintf("broker: rectangle 0 has %d dimensions (max %d)", wal.MaxPointDims+1, wal.MaxPointDims)},
		{"nan", `[[{"lo":NaN,"hi":1}]]`, false, "wire: decoding message: invalid character 'N' looking for beginning of value"},
	} {
		canonical := `{"type":"subscribe","rects":` + tc.rects + `,"group":true}`
		for _, body := range []string{canonical, strings.Replace(canonical, `,"rects"`, `, "rects"`, 1)} {
			fast := decodeFastBody([]byte(body), new(Message))
			if want := tc.fast && body == canonical; fast != want {
				t.Fatalf("%s: fast decoder on %s: accepted %v, want %v", tc.name, body, fast, want)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
			if _, err := conn.Write(append(frame, body...)); err != nil {
				t.Fatal(err)
			}
			if m, err := ReadMessage(conn); err != nil || m.Type != TypeError || m.Error != tc.reply {
				t.Errorf("%s (fast %v): reply %+v, %v; want error %q", tc.name, fast, m, err, tc.reply)
			}
			if err := WriteMessage(conn, &Message{Type: TypePublish, Point: []float64{1}}); err != nil {
				t.Fatal(err)
			}
			if m, err := ReadMessage(conn); err != nil || m.Type != TypeOK {
				t.Errorf("%s (fast %v): publish after the refusal: %+v, %v", tc.name, fast, m, err)
			}
			conn.Close()
		}
	}
}
