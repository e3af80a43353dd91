package opcua

// The wire protocol is the shared framing of internal/wire (this package's
// body encoding is in wirecodec.go), with the pooled buffers and the
// frame-size bound owned there. Requests carry an operation and a
// correlation id; the server answers with the same id. Subscription
// notifications are pushed with id 0 and op "notify". A session opens
// with a hello request, answered with the server's endpoint name. A
// subscribe request lists its nodes, and is refused whole if any of them is
// not a variable.

// Op names of the protocol.
const (
	OpHello       = "hello"
	OpRead        = "read"
	OpWrite       = "write"
	OpCall        = "call"
	OpBrowse      = "browse"
	OpSubscribe   = "subscribe"
	OpUnsubscribe = "unsubscribe"
	OpNotify      = "notify"
)

// Message is both request and response envelope.
type Message struct {
	ID     uint64
	Op     string
	NodeID NodeID
	// NodeIDs is a subscribe request's list: one monitored item per node.
	NodeIDs []NodeID
	Value   *Variant
	Args    []Variant
	// Response fields.
	OK      bool
	Error   string
	Results []Variant
	Node    *NodeInfo
	// SubID is a notification's monitored item, and in a subscribe
	// response the first item's ID: the items of one request are numbered
	// consecutively in list order, so the response names every item. A
	// notification carries no NodeID; the item ID names the node.
	SubID int
	Seq   uint64
	// Hello payload.
	Endpoint string
}
