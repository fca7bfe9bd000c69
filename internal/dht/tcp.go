package dht

import (
	"errors"
	"fmt"

	"mdrep/internal/fault"
	"mdrep/internal/obs"
	"mdrep/internal/rpc"
)

// The TCP transport runs over internal/rpc: one request/response pair
// per connection, framed by internal/wire (length-prefixed JSON), which
// keeps the protocol trivially robust to peer churn. The dial is paid
// on every RPC: a loopback Ping measures ~170 µs on a 2-CPU Xeon VM, 57
// allocations and 2.8 KB (BenchmarkTCPPing). Sampled requests carry a
// wire.TraceContext header in the Trace field, so the server side
// continues the caller's trace.

type wireRequest struct {
	Method    string         `json:"method"`
	ID        ID             `json:"id,omitempty"`
	Node      NodeRef        `json:"node,omitempty"`
	Records   []StoredRecord `json:"records,omitempty"`
	Replicate bool           `json:"replicate,omitempty"`
	Trace     []byte         `json:"trace,omitempty"`
}

type wireResponse struct {
	Error   string         `json:"error,omitempty"`
	Node    NodeRef        `json:"nodeRef,omitempty"`
	HasNode bool           `json:"hasNode,omitempty"`
	Nodes   []NodeRef      `json:"nodes,omitempty"`
	Records []StoredRecord `json:"records,omitempty"`
}

// TCPClient implements Client over TCP, with internal/rpc's 2 s dial
// and 5 s call timeouts.
type TCPClient struct{}

// NewTCPClient returns a TCP client.
func NewTCPClient() *TCPClient { return &TCPClient{} }

// call runs one framed exchange inside an RPC span: a child of sc when
// the caller is traced, a fresh root otherwise, with the span context
// propagated in the request's Trace header. Transport failures are
// ErrNodeUnreachable; an error frame from the node is terminal.
func (c *TCPClient) call(sc obs.SpanContext, spanName, addr string, req wireRequest) (resp *wireResponse, err error) {
	sp := obs.StartSpan(sc, spanName)
	sp.AttrStr(attrAddr, addr)
	defer func() { sp.EndErr(err) }()
	req.Trace = sp.Context().MarshalWire()

	var r wireResponse
	if err := rpc.Call(addr, nil, req, &r); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNodeUnreachable, err)
	}
	if r.Error != "" {
		return nil, fault.Terminal(errors.New(r.Error))
	}
	return &r, nil
}

// FindSuccessor implements Client.
func (c *TCPClient) FindSuccessor(sc obs.SpanContext, addr string, id ID) (NodeRef, error) {
	resp, err := c.call(sc, spanRPCFindSuccessor, addr, wireRequest{Method: "find_successor", ID: id})
	if err != nil {
		return NodeRef{}, err
	}
	return resp.Node, nil
}

// Successors implements Client.
func (c *TCPClient) Successors(sc obs.SpanContext, addr string) ([]NodeRef, error) {
	resp, err := c.call(sc, spanRPCSuccessors, addr, wireRequest{Method: "successors"})
	if err != nil {
		return nil, err
	}
	return resp.Nodes, nil
}

// Predecessor implements Client.
func (c *TCPClient) Predecessor(sc obs.SpanContext, addr string) (NodeRef, bool, error) {
	resp, err := c.call(sc, spanRPCPredecessor, addr, wireRequest{Method: "predecessor"})
	if err != nil {
		return NodeRef{}, false, err
	}
	return resp.Node, resp.HasNode, nil
}

// Notify implements Client.
func (c *TCPClient) Notify(sc obs.SpanContext, addr string, self NodeRef) error {
	_, err := c.call(sc, spanRPCNotify, addr, wireRequest{Method: "notify", Node: self})
	return err
}

// Ping implements Client.
func (c *TCPClient) Ping(sc obs.SpanContext, addr string) error {
	_, err := c.call(sc, spanRPCPing, addr, wireRequest{Method: "ping"})
	return err
}

// Store implements Client.
func (c *TCPClient) Store(sc obs.SpanContext, addr string, recs []StoredRecord, replicate bool) error {
	_, err := c.call(sc, spanRPCStore, addr, wireRequest{Method: "store", Records: recs, Replicate: replicate})
	return err
}

// Retrieve implements Client.
func (c *TCPClient) Retrieve(sc obs.SpanContext, addr string, key ID) ([]StoredRecord, error) {
	resp, err := c.call(sc, spanRPCRetrieve, addr, wireRequest{Method: "retrieve", ID: key})
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

var _ Client = (*TCPClient)(nil)

// TCPNodeServer couples a Node with the TCP server exposing it.
type TCPNodeServer struct {
	srv  *rpc.Server
	node *Node
}

// ServeTCPNode binds listen (use ":0" for an ephemeral port), creates a
// node addressed at the bound address, so its ring ID derives from the
// real address, and only then starts serving it.
func ServeTCPNode(listen string, client Client, cfg NodeConfig) (*TCPNodeServer, error) {
	ln, err := rpc.Listen(listen)
	if err != nil {
		return nil, fmt.Errorf("dht: %w", err)
	}
	node, err := NewNode(ln.Addr().String(), client, cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	srv := rpc.Serve(ln, nil, func(req wireRequest) wireResponse { return serve(node, req) })
	return &TCPNodeServer{srv: srv, node: node}, nil
}

// Node returns the served node.
func (s *TCPNodeServer) Node() *Node { return s.node }

// Addr returns the bound listen address.
func (s *TCPNodeServer) Addr() string { return s.srv.Addr() }

// Close stops the server.
func (s *TCPNodeServer) Close() error { return s.srv.Close() }

// serve answers one request inside its serve span.
func serve(h handler, req wireRequest) wireResponse {
	// A corrupt or absent trace header yields the zero context, and the
	// serve span roots a trace of its own — tracing never fails a
	// request.
	sp := obs.StartSpan(obs.SpanContextFromWire(req.Trace), spanServe)
	sp.AttrStr(attrMethod, req.Method)
	resp := dispatch(h, req, sp.Context())
	if resp.Error != "" {
		sp.EndErr(errors.New(resp.Error)) //mdrep:allow faultwrap: feeds the serve span's status only; the client re-tags the wire error
	} else {
		sp.End()
	}
	return resp
}

func dispatch(h handler, req wireRequest, sc obs.SpanContext) wireResponse {
	switch req.Method {
	case "find_successor":
		ref, err := h.HandleFindSuccessor(sc, req.ID)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{Node: ref}
	case "successors":
		return wireResponse{Nodes: h.HandleSuccessors()}
	case "predecessor":
		ref, ok := h.HandlePredecessor()
		return wireResponse{Node: ref, HasNode: ok}
	case "notify":
		h.HandleNotify(req.Node)
		return wireResponse{}
	case "ping":
		return wireResponse{}
	case "store":
		h.HandleStore(sc, req.Records, req.Replicate)
		return wireResponse{}
	case "retrieve":
		return wireResponse{Records: h.HandleRetrieve(req.ID)}
	default:
		return wireResponse{Error: fmt.Sprintf("dht: unknown method %q", req.Method)}
	}
}
