package node

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"rcm/node/internal/clock"
	"rcm/overlay"
)

// Client speaks the node wire protocol from outside the overlay: it
// injects requests at an entry node and waits for the owner's response,
// which travels straight back to the client's own transport address. It
// is what `rcmd -op get|put|lookup` uses to talk to a running daemon,
// and the reference for writing other out-of-band tools.
//
// A client is not a DHT node — it holds no identifier, owns no keys and
// never forwards. Its requests enter the overlay with a full hop budget,
// so the reported hop count includes the delivery to the entry node.
type Client struct {
	cfg  ClientConfig
	tr   Transport
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	seq atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan message
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Target is the transport address of the entry node.
	Target string
	// Space is the overlay's identifier space (it must match the
	// daemons': key ownership is KeyID over this space).
	Space overlay.Space
	// Bind is the local UDP address to listen for responses on; it must
	// be reachable from the daemons (default "127.0.0.1:0").
	Bind string
	// Transport overrides the UDP socket (in-process tests); when set,
	// Bind is ignored and Close leaves the transport open. A client waits
	// on the wall clock, so a NewSimNetwork endpoint does not suit it.
	Transport Transport
	// RTO is the retransmission interval while the entry node has not
	// acknowledged the request (default 50 ms).
	RTO time.Duration
	// Retransmits is how many times an unacknowledged request is re-sent
	// before the client gives up on the entry node (default 2; negative
	// disables retransmission, as in node.Config and eventsim.Config).
	Retransmits int
	// Deadline is the request time-to-live (default 5 s).
	Deadline time.Duration
}

// clientIDBit marks client-originated request ids: node ids occupy the
// low 62 bits (id<<32 | seq with id < 2^30), so bit 63 never collides.
// Bits 32..62 carry a hash of the client's transport address, keeping
// concurrent clients' ids distinct from each other too — overlay nodes
// dedupe deliveries by request id alone.
const clientIDBit = uint64(1) << 63

// Dial connects a client to the entry node at cfg.Target.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("node: client: empty target address")
	}
	if cfg.Space.Size() == 0 {
		return nil, fmt.Errorf("node: client: zero identifier space")
	}
	cfg.RTO, cfg.Retransmits, cfg.Deadline = timingDefaults(cfg.RTO, cfg.Retransmits, cfg.Deadline)
	tr := cfg.Transport
	if tr == nil {
		bind := cfg.Bind
		if bind == "" {
			bind = "127.0.0.1:0"
		}
		var err error
		tr, err = ListenUDP(bind)
		if err != nil {
			return nil, err
		}
	}
	c := &Client{
		cfg:     cfg,
		tr:      tr,
		done:    make(chan struct{}),
		waiters: make(map[uint64]chan message),
	}
	c.wg.Add(1)
	go c.recvPump()
	return c, nil
}

// Close releases the client's socket and fails outstanding requests.
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.done)
		if c.cfg.Transport == nil {
			c.tr.Close()
		}
	})
	if c.cfg.Transport == nil {
		c.wg.Wait()
	}
}

// recvPump routes acknowledgements and responses to their waiters.
func (c *Client) recvPump() {
	defer c.wg.Done()
	for {
		pkt, _, err := c.tr.Recv()
		if err != nil {
			return
		}
		m, err := decodeWire(pkt)
		if err != nil {
			continue
		}
		c.mu.Lock()
		ch, ok := c.waiters[m.ReqID]
		c.mu.Unlock()
		if ok {
			select {
			case ch <- m:
			default: // waiter's buffer full (duplicate): drop
			}
		}
	}
}

// Lookup routes to the owner of dst through the entry node.
func (c *Client) Lookup(dst overlay.ID) Result {
	return c.do(OpLookup, dst, 0, nil)
}

// Get fetches the value stored under key.
func (c *Client) Get(key string) Result {
	return c.do(OpGet, KeyID(c.cfg.Space, key), KeyHash(key), nil)
}

// Put stores value under key at its owner.
func (c *Client) Put(key string, value []byte) Result {
	if len(value) > MaxValueLen {
		return Result{Err: fmt.Errorf("node: client: value of %d bytes exceeds the %d-byte wire limit", len(value), MaxValueLen)}
	}
	return c.do(OpPut, KeyID(c.cfg.Space, key), KeyHash(key), value)
}

// do issues one request: send to the entry node, re-send at RTO
// intervals until acknowledged, then wait for the owner's response.
func (c *Client) do(op Op, dst overlay.ID, key uint64, value []byte) Result {
	if !c.cfg.Space.Contains(dst) {
		return Result{Err: fmt.Errorf("node: client: destination %d outside the %d-bit identifier space", dst, c.cfg.Space.Bits())}
	}
	h := fnv.New64a()
	h.Write([]byte(c.tr.Addr()))
	reqID := clientIDBit | (h.Sum64()&0x7fffffff)<<32 | (c.seq.Add(1) & 0xffffffff)
	ch := make(chan message, 4)
	c.mu.Lock()
	c.waiters[reqID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, reqID)
		c.mu.Unlock()
	}()

	m := message{
		Kind:     msgReq,
		Op:       op,
		Budget:   uint16(c.cfg.Space.MaxHops()),
		ReqID:    reqID,
		Dst:      uint64(dst),
		Key:      key,
		Deadline: uint32(c.cfg.Deadline / time.Millisecond),
		Origin:   c.tr.Addr(),
		Value:    value,
	}
	pkt, err := appendWire(nil, &m)
	if err != nil {
		return Result{Err: err}
	}
	if err := c.tr.Send(c.cfg.Target, pkt); err != nil {
		return Result{Err: err}
	}

	guard := clock.Wall.NewTimer(c.cfg.Deadline + 2*c.cfg.RTO)
	defer guard.Stop()
	rto := clock.Wall.NewTimer(c.cfg.RTO)
	defer rto.Stop()
	acked, sends := false, 1
	for {
		select {
		case rm := <-ch:
			switch rm.Kind {
			case msgAck:
				acked = true
			case msgResp:
				return Result{Status: rm.Status, Hops: int(rm.Hops), Value: rm.Value}
			}
		case <-rto.C:
			if !acked {
				if sends > c.cfg.Retransmits {
					return Result{Status: StatusExpired, Err: fmt.Errorf("node: client: entry node %s unresponsive after %d sends", c.cfg.Target, sends)}
				}
				sends++
				c.tr.Send(c.cfg.Target, pkt)
			}
			rto.Reset(c.cfg.RTO)
		case <-guard.C:
			return Result{Status: StatusExpired, Err: fmt.Errorf("node: client: request %#x: no response within the %v deadline", reqID, c.cfg.Deadline)}
		case <-c.done:
			return Result{Err: fmt.Errorf("node: client: closed")}
		}
	}
}
