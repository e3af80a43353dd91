package stack

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
)

// frameConn counts the complete frames a broker client writes and reads on
// its connection.
type frameConn struct {
	net.Conn
	mu                  sync.Mutex
	wbuf, rbuf          []byte
	written, readFrames int
}

func (fc *frameConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	fc.written += countFrames(&fc.wbuf, p)
	fc.mu.Unlock()
	return fc.Conn.Write(p)
}

func (fc *frameConn) Read(p []byte) (int, error) {
	n, err := fc.Conn.Read(p)
	fc.mu.Lock()
	fc.readFrames += countFrames(&fc.rbuf, p[:n])
	fc.mu.Unlock()
	return n, err
}

func (fc *frameConn) counts() (written, read int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.written, fc.readFrames
}

// countFrames appends p to the partial frame in *buf and returns how many
// frames that completes.
func countFrames(buf *[]byte, p []byte) int {
	*buf = append(*buf, p...)
	n := 0
	for {
		_, _, rest, ok := nextFrame(*buf)
		if !ok {
			return n
		}
		*buf = rest
		n++
	}
}

// TestServiceCallIsOneFrameEachWay: after the first call on a service,
// which subscribes to its response topic, a call is one frame out (the
// request, with no ack asked for) and one frame in (the reply) on the
// caller's connection — no subscribe, publish ack or unsubscribe per call.
func TestServiceCallIsOneFrameEachWay(t *testing.T) {
	rig := startRig(t)
	conn, err := net.Dial("tcp", rig.brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameConn{Conn: conn}
	bc := broker.NewClientConn(fc, 5*time.Second)
	defer bc.Close()

	isReady := rig.mc.Methods[0]
	call := func() {
		t.Helper()
		reply, err := CallService(bc, isReady, nil, 3*time.Second)
		if err != nil || !reply.OK {
			t.Fatalf("is_ready: %+v, %v", reply, err)
		}
	}
	call()
	for i := 0; i < 20; i++ {
		w0, r0 := fc.counts()
		call()
		w1, r1 := fc.counts()
		if w1-w0 != 1 || r1-r0 != 1 {
			t.Fatalf("call %d: %d frames written, %d read; want 1 and 1", i+2, w1-w0, r1-r0)
		}
	}
}

// TestConcurrentCallersGetTheirOwnReplies: two clients on separate
// connections call one service concurrently, each from two goroutines.
// Both clients hear every reply on its response topic; each call must take
// only the reply to itself, and none may time out because another's reply
// took its place.
func TestConcurrentCallersGetTheirOwnReplies(t *testing.T) {
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	echo := codegen.MethodConfig{Name: "echo",
		RequestTopic: "factory/echo/request", ResponseTopic: "factory/echo/response"}

	// The service answers each call with its own arguments as results.
	svc, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, reqs, err := svc.Subscribe(echo.RequestTopic)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for m := range reqs {
			var req ServicePayload
			if json.Unmarshal(m.Payload, &req) != nil {
				continue
			}
			raw, _ := json.Marshal(ServiceReply{OK: true, Results: req.Args, ID: req.ID})
			if svc.PublishAsync(echo.ResponseTopic, raw, false) != nil {
				return
			}
		}
	}()

	const clients, perClient, rounds = 2, 2, 200
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		bc, err := broker.DialClient(brk.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer bc.Close()
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func(caller string) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					arg := fmt.Sprintf("%s round %d", caller, i)
					reply, err := CallService(bc, echo, []any{arg}, 3*time.Second)
					if err != nil {
						errs <- fmt.Errorf("%s: %w", arg, err)
						return
					}
					if len(reply.Results) != 1 || reply.Results[0] != arg {
						errs <- fmt.Errorf("%s: got the reply %v", arg, reply.Results)
						return
					}
				}
			}(fmt.Sprintf("client %d caller %d", n, g))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
