// Package nn implements the transformer models PIM-DL operates on: a
// BERT-style encoder for sequence classification and a ViT-style encoder
// for patch-based image classification. Every linear layer has a pluggable
// backend (exact GEMM, FP32 LUT-NN, or INT8 LUT-NN), which is how the
// PIM-DL engine swaps GEMM for table lookups (paper Fig. 6-b).
package nn

import "fmt"

// InputKind selects how the model embeds its input.
type InputKind int

const (
	// TokenInput embeds integer token ids through a vocabulary table
	// (BERT-style).
	TokenInput InputKind = iota
	// PatchInput projects continuous patch vectors through a linear layer
	// (ViT-style).
	PatchInput
)

// Config describes a transformer encoder.
type Config struct {
	Name     string
	Kind     InputKind
	Vocab    int // token vocabulary size (TokenInput)
	PatchDim int // flattened patch length (PatchInput)
	Hidden   int
	Layers   int
	Heads    int
	FFN      int // inner feed-forward width (usually 4·Hidden)
	SeqLen   int
	Classes  int
	// Causal selects decoder-style masked attention (GPT-like models).
	Causal bool
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("nn: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	}
	if c.Kind == TokenInput && c.Vocab <= 0 {
		return fmt.Errorf("nn: TokenInput requires Vocab")
	}
	if c.Kind == PatchInput && c.PatchDim <= 0 {
		return fmt.Errorf("nn: PatchInput requires PatchDim")
	}
	if c.Layers <= 0 || c.SeqLen <= 0 || c.Classes <= 0 {
		return fmt.Errorf("nn: non-positive Layers/SeqLen/Classes")
	}
	return nil
}

// The paper's evaluation shapes (§6.1). The hidden dims are the quantities
// that matter for the performance experiments; layer counts follow the
// original BERT/ViT papers.
var (
	// BERTBase is the BERT-base shape: hidden 768, 12 layers, 12 heads.
	BERTBase = Config{Name: "Bert-Base", Kind: TokenInput, Vocab: 30522,
		Hidden: 768, Layers: 12, Heads: 12, FFN: 3072, SeqLen: 512, Classes: 2}
	// BERTLarge is the BERT-large shape: hidden 1024, 24 layers, 16 heads.
	BERTLarge = Config{Name: "Bert-Large", Kind: TokenInput, Vocab: 30522,
		Hidden: 1024, Layers: 24, Heads: 16, FFN: 4096, SeqLen: 512, Classes: 2}
	// ViTHuge is the ViT-huge shape: hidden 1280, 32 layers. The paper pads
	// its sequence length 257 to 264 to partition evenly across PEs.
	ViTHuge = Config{Name: "ViT-Huge", Kind: PatchInput, PatchDim: 588,
		Hidden: 1280, Layers: 32, Heads: 16, FFN: 5120, SeqLen: 264, Classes: 10}
)

// Tiny returns a small config usable in unit tests and examples: it keeps
// the full architecture (attention, FFN, residuals, layernorm) at toy size.
//
//pimdl:lint-ignore deadexport toy-size model config the nn and core tests build on
func Tiny(kind InputKind, seqLen, classes int) Config {
	c := Config{Name: "Tiny", Kind: kind, Hidden: 16, Layers: 2, Heads: 2,
		FFN: 32, SeqLen: seqLen, Classes: classes}
	if kind == TokenInput {
		c.Vocab = 32
	} else {
		c.PatchDim = 12
	}
	return c
}

// LinearRole identifies the four per-block linear operators PIM-DL
// converts to LUTs (paper Fig. 6-b).
type LinearRole int

const (
	RoleQKV LinearRole = iota
	RoleO
	RoleFFN1
	RoleFFN2
)

// String returns the paper's name for the role.
func (r LinearRole) String() string {
	switch r {
	case RoleQKV:
		return "QKV"
	case RoleO:
		return "O"
	case RoleFFN1:
		return "FFN1"
	case RoleFFN2:
		return "FFN2"
	}
	return "?"
}

// Roles lists all convertible linear roles in block order.
var Roles = []LinearRole{RoleQKV, RoleO, RoleFFN1, RoleFFN2}

// LinearShape returns (outFeatures, inFeatures) of the role's weight for
// config c. QKV is the fused projection (3H×H), as the paper fuses Q/K/V
// into one FC operator. It panics on an unknown role.
func (c Config) LinearShape(r LinearRole) (out, in int) {
	switch r {
	case RoleQKV:
		return 3 * c.Hidden, c.Hidden
	case RoleO:
		return c.Hidden, c.Hidden
	case RoleFFN1:
		return c.FFN, c.Hidden
	case RoleFFN2:
		return c.Hidden, c.FFN
	}
	panic("nn: unknown role")
}
