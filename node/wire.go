package node

import (
	"encoding/binary"
	"fmt"
)

// The wire protocol is a compact fixed-header binary format, the same for
// every message kind; requests additionally carry a key, a value and the
// origin address. All integers are big-endian. The header is versioned so
// mixed-version clusters fail loudly instead of misparsing:
//
//	magic   uint16  0x5243 ("RC")
//	version uint8   1
//	kind    uint8   msgReq | msgAck | msgResp
//	op      uint8   OpLookup | OpGet | OpPut (requests and responses)
//	status  uint8   StatusOK | Status... (responses); 0 otherwise
//	hops    uint16  hops taken so far (requests) / total (responses)
//	budget  uint16  remaining hop budget (requests)
//	reqID   uint64  request identity, allocated by the origin
//	dst     uint64  destination identifier (requests)
//	key     uint64  key identifier (get/put)
//	deadline uint32 remaining time-to-live in milliseconds (requests)
//	origin  uint8 length + bytes  reply-to address (requests, <= 255 bytes)
//	value   uint16 length + bytes put payload / get result
const (
	wireMagic   uint16 = 0x5243
	wireVersion uint8  = 1

	headerLen = 2 + 1 + 1 + 1 + 1 + 2 + 2 + 8 + 8 + 8 + 4

	// MaxValueLen bounds a stored value so every message fits one UDP
	// datagram with comfortable headroom.
	MaxValueLen = 8 << 10
	// maxPacket bounds a decoded packet.
	maxPacket = headerLen + 1 + 255 + 2 + MaxValueLen
)

// Message kinds.
const (
	msgReq  uint8 = iota + 1 // a lookup/get/put request, forwarded hop by hop
	msgAck                   // per-hop acceptance, retiring the sender's attempt
	msgResp                  // final verdict, sent directly to the origin
)

// Op identifies the operation a request performs at the key's owner.
type Op uint8

// Operations.
const (
	// OpLookup routes to the destination's owner and returns success.
	OpLookup Op = iota + 1
	// OpGet fetches the value stored under the key at its owner.
	OpGet
	// OpPut stores the value under the key at its owner.
	OpPut
)

func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is the final verdict of a request.
type Status uint8

// Statuses.
const (
	// StatusOK: the request reached the key's owner (and, for get, found
	// the key).
	StatusOK Status = iota + 1
	// StatusNotFound: a get reached the owner but the key is absent.
	StatusNotFound
	// StatusNoRoute: every forwarding candidate was exhausted at some hop.
	StatusNoRoute
	// StatusHopBudget: the hop budget ran out.
	StatusHopBudget
	// StatusExpired: the per-message deadline lapsed in flight.
	StatusExpired
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not found"
	case StatusNoRoute:
		return "no route"
	case StatusHopBudget:
		return "hop budget exhausted"
	case StatusExpired:
		return "deadline expired"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// message is the decoded form of every packet; unused fields are zero for
// kinds that do not carry them.
type message struct {
	Kind     uint8
	Op       Op
	Status   Status
	Hops     uint16
	Budget   uint16
	ReqID    uint64
	Dst      uint64
	Key      uint64
	Deadline uint32 // remaining ms
	Origin   string
	Value    []byte
}

// appendWire encodes m into buf (reused across calls by the node loop).
func appendWire(buf []byte, m *message) ([]byte, error) {
	if len(m.Origin) > 255 {
		return nil, fmt.Errorf("node: origin address %q longer than 255 bytes", m.Origin)
	}
	if len(m.Value) > MaxValueLen {
		return nil, fmt.Errorf("node: value of %d bytes exceeds the %d-byte wire limit", len(m.Value), MaxValueLen)
	}
	buf = binary.BigEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion, m.Kind, uint8(m.Op), uint8(m.Status))
	buf = binary.BigEndian.AppendUint16(buf, m.Hops)
	buf = binary.BigEndian.AppendUint16(buf, m.Budget)
	buf = binary.BigEndian.AppendUint64(buf, m.ReqID)
	buf = binary.BigEndian.AppendUint64(buf, m.Dst)
	buf = binary.BigEndian.AppendUint64(buf, m.Key)
	buf = binary.BigEndian.AppendUint32(buf, m.Deadline)
	buf = append(buf, uint8(len(m.Origin)))
	buf = append(buf, m.Origin...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Value)))
	buf = append(buf, m.Value...)
	return buf, nil
}

// decodeWire parses a packet into a new message.
func decodeWire(pkt []byte) (message, error) {
	var m message
	err := m.decode(pkt)
	return m, err
}

// decode parses a packet into m, which must be zero. The value is copied
// out of pkt so the caller may reuse the receive buffer.
func (m *message) decode(pkt []byte) error {
	if len(pkt) < headerLen+1+2 {
		return fmt.Errorf("node: packet of %d bytes shorter than the %d-byte minimum", len(pkt), headerLen+1+2)
	}
	if len(pkt) > maxPacket {
		return fmt.Errorf("node: packet of %d bytes exceeds the %d-byte maximum", len(pkt), maxPacket)
	}
	if got := binary.BigEndian.Uint16(pkt[0:2]); got != wireMagic {
		return fmt.Errorf("node: bad magic %#04x", got)
	}
	if got := pkt[2]; got != wireVersion {
		return fmt.Errorf("node: wire version %d, this node speaks %d", got, wireVersion)
	}
	m.Kind = pkt[3]
	if m.Kind < msgReq || m.Kind > msgResp {
		return fmt.Errorf("node: unknown message kind %d", m.Kind)
	}
	m.Op = Op(pkt[4])
	m.Status = Status(pkt[5])
	m.Hops = binary.BigEndian.Uint16(pkt[6:8])
	m.Budget = binary.BigEndian.Uint16(pkt[8:10])
	m.ReqID = binary.BigEndian.Uint64(pkt[10:18])
	m.Dst = binary.BigEndian.Uint64(pkt[18:26])
	m.Key = binary.BigEndian.Uint64(pkt[26:34])
	m.Deadline = binary.BigEndian.Uint32(pkt[34:38])
	rest := pkt[headerLen:]
	olen := int(rest[0])
	rest = rest[1:]
	if len(rest) < olen+2 {
		return fmt.Errorf("node: truncated origin (%d of %d bytes)", len(rest), olen+2)
	}
	m.Origin = string(rest[:olen])
	rest = rest[olen:]
	vlen := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if vlen > MaxValueLen {
		// maxPacket budgets for a full 255-byte origin, so a short origin
		// leaves room for an over-limit value; reject it here so every
		// decoded message can be re-encoded.
		return fmt.Errorf("node: value of %d bytes exceeds the %d-byte wire limit", vlen, MaxValueLen)
	}
	if len(rest) != vlen {
		return fmt.Errorf("node: value length %d does not match remaining %d bytes", vlen, len(rest))
	}
	if vlen > 0 {
		m.Value = append([]byte(nil), rest...)
	}
	return nil
}
