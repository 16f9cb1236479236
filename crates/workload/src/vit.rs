//! Vision Transformer inference op graphs.

use crate::GemmSpec;

/// The ViT variants the paper evaluates (hidden dimensions 768, 1024 and
/// 1280; 12 or 16 attention heads).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum VitModel {
    /// ViT-Base: 12 layers, hidden 768, 12 heads.
    Base,
    /// ViT-Large: 24 layers, hidden 1024, 16 heads.
    Large,
    /// ViT-Huge: 32 layers, hidden 1280, 16 heads.
    Huge,
}

impl VitModel {
    /// All paper variants.
    pub const ALL: [VitModel; 3] = [VitModel::Base, VitModel::Large, VitModel::Huge];

    /// Hidden dimension.
    pub fn hidden(self) -> u32 {
        match self {
            VitModel::Base => 768,
            VitModel::Large => 1024,
            VitModel::Huge => 1280,
        }
    }

    /// Encoder layers.
    pub fn layers(self) -> u32 {
        match self {
            VitModel::Base => 12,
            VitModel::Large => 24,
            VitModel::Huge => 32,
        }
    }

    /// Attention heads.
    pub fn heads(self) -> u32 {
        match self {
            VitModel::Base => 12,
            VitModel::Large | VitModel::Huge => 16,
        }
    }

    /// Tokens per image: 14×14 patches + CLS for 224×224/16.
    pub fn seq_len(self) -> u32 {
        197
    }

    /// MLP expansion dimension (4×hidden).
    pub fn mlp_dim(self) -> u32 {
        4 * self.hidden()
    }

    /// Per-head dimension.
    pub fn head_dim(self) -> u32 {
        self.hidden() / self.heads()
    }

    /// Flattened patch dimension for 224×224 RGB, 16×16 patches
    /// (3 × 16 × 16).
    pub fn patch_dim(self) -> u32 {
        3 * 16 * 16
    }

    /// ImageNet-1k classifier width.
    pub fn num_classes(self) -> u32 {
        1000
    }

    /// Total learned parameters of the full model (embeddings, encoder,
    /// final norm and classifier head).
    ///
    /// ```
    /// use accesys_workload::VitModel;
    ///
    /// // The well-known ≈86M / ≈304M parameter counts of ViT-B/16 and
    /// // ViT-L/16 at 224×224.
    /// assert_eq!(VitModel::Base.param_count() / 1_000_000, 86);
    /// assert_eq!(VitModel::Large.param_count() / 1_000_000, 304);
    /// ```
    pub fn param_count(self) -> u64 {
        let h = u64::from(self.hidden());
        let m = u64::from(self.mlp_dim());
        let s = u64::from(self.seq_len());
        let p = u64::from(self.patch_dim());
        let c = u64::from(self.num_classes());
        let embed = p * h + h + s * h + h; // patch proj + bias + pos + cls
        let per_layer = (3 * h * h + 3 * h)   // qkv
            + (h * h + h)                     // proj
            + (h * m + m)                     // fc1
            + (m * h + h)                     // fc2
            + 2 * 2 * h; // two LayerNorms (scale + shift)
        let head = 2 * h + (h * c + c); // final LN + classifier
        embed + u64::from(self.layers()) * per_layer + head
    }
}

impl std::fmt::Display for VitModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VitModel::Base => "ViT-Base",
            VitModel::Large => "ViT-Large",
            VitModel::Huge => "ViT-Huge",
        };
        f.write_str(s)
    }
}

/// Operator class: GEMM runs on the accelerator, the rest on the CPU.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum OpKind {
    /// Matrix multiplication (offloaded).
    Gemm,
    /// Layer normalisation.
    LayerNorm,
    /// Attention softmax.
    Softmax,
    /// GELU activation.
    Gelu,
    /// Residual addition.
    Residual,
}

impl OpKind {
    /// Whether the operator is offloaded to the accelerator.
    pub fn is_gemm(self) -> bool {
        self == OpKind::Gemm
    }
}

/// One operator instance of the inference graph.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Op {
    /// Human-readable name ("qkv", "softmax", ...).
    pub name: String,
    /// Operator class.
    pub kind: OpKind,
    /// GEMM shape when `kind` is [`OpKind::Gemm`].
    pub gemm: Option<GemmSpec>,
    /// Bytes read by a Non-GEMM operator.
    pub read_bytes: u64,
    /// Bytes written by a Non-GEMM operator.
    pub write_bytes: u64,
    /// Arithmetic operations of a Non-GEMM operator.
    pub flops: u64,
    /// Times this operator runs per encoder layer.
    pub count: u32,
}

impl Op {
    pub(crate) fn gemm(name: &str, m: u32, n: u32, k: u32, count: u32) -> Op {
        Op {
            name: name.to_string(),
            kind: OpKind::Gemm,
            gemm: Some(GemmSpec::new(m, n, k)),
            read_bytes: 0,
            write_bytes: 0,
            flops: 0,
            count,
        }
    }

    pub(crate) fn non_gemm(
        name: &str,
        kind: OpKind,
        read_bytes: u64,
        write_bytes: u64,
        flops: u64,
        count: u32,
    ) -> Op {
        Op {
            name: name.to_string(),
            kind,
            gemm: None,
            read_bytes,
            write_bytes,
            flops,
            count,
        }
    }

    /// Total MACs of this op across its `count` instances (GEMM only).
    ///
    /// Saturates at `u64::MAX` instead of wrapping: synthetic mega-ops
    /// (huge shapes × huge counts) stay "absurdly large" rather than
    /// silently becoming small numbers.
    pub fn total_macs(&self) -> u64 {
        self.gemm
            .map(|g| g.macs().saturating_mul(u64::from(self.count)))
            .unwrap_or(0)
    }

    /// Total bytes touched by Non-GEMM instances.
    ///
    /// Saturates at `u64::MAX` like [`Op::total_macs`].
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes
            .saturating_add(self.write_bytes)
            .saturating_mul(u64::from(self.count))
    }
}

/// The operators of **one encoder layer** of `model`, in execution order.
///
/// The full model is `model.layers()` identical layers; callers simulate
/// one layer and scale, exactly like the paper's analytic Section V-D.
///
/// ```
/// use accesys_workload::{vit_ops, VitModel, OpKind};
///
/// let ops = vit_ops(VitModel::Base);
/// assert!(ops.iter().any(|o| o.kind == OpKind::Softmax));
/// let gemm_macs: u64 = ops.iter().map(|o| o.total_macs()).sum();
/// assert!(gemm_macs > 1_000_000_000); // >1 GMAC per ViT-Base layer
/// ```
pub fn vit_ops(model: VitModel) -> Vec<Op> {
    encoder_layer_ops(
        model.seq_len(),
        model.hidden(),
        model.heads(),
        model.mlp_dim(),
    )
}

/// The operators of one generic transformer encoder layer — the shared
/// structure behind both ViT ([`vit_ops`]) and BERT
/// ([`crate::bert_ops`]) workloads, public so graph lowerings and
/// experiments can build scaled synthetic encoders (`hidden` must be a
/// multiple of `heads`).
pub fn encoder_ops(seq: u32, hidden: u32, heads: u32, mlp: u32) -> Vec<Op> {
    encoder_layer_ops(seq, hidden, heads, mlp)
}

pub(crate) fn encoder_layer_ops(seq: u32, hidden: u32, heads: u32, mlp: u32) -> Vec<Op> {
    let s = u64::from(seq);
    let h = u64::from(hidden);
    let hd = hidden / heads;
    let m = u64::from(mlp);
    let d = 4u64; // 4-byte elements

    vec![
        // LayerNorm 1: read + write S×H, ~8 ops/element.
        Op::non_gemm("ln1", OpKind::LayerNorm, s * h * d, s * h * d, 8 * s * h, 1),
        // Fused QKV projection.
        Op::gemm("qkv", seq, 3 * hidden, hidden, 1),
        // Attention scores per head: S×S over head_dim.
        Op::gemm("scores", seq, seq, hd, heads),
        // Softmax over heads × S × S scores.
        Op::non_gemm(
            "softmax",
            OpKind::Softmax,
            u64::from(heads) * s * s * d,
            u64::from(heads) * s * s * d,
            5 * u64::from(heads) * s * s,
            1,
        ),
        // Attention-weighted values per head.
        Op::gemm("attnv", seq, hd, seq, heads),
        // Output projection.
        Op::gemm("proj", seq, hidden, hidden, 1),
        // Residual 1.
        Op::non_gemm(
            "residual1",
            OpKind::Residual,
            2 * s * h * d,
            s * h * d,
            s * h,
            1,
        ),
        // LayerNorm 2.
        Op::non_gemm("ln2", OpKind::LayerNorm, s * h * d, s * h * d, 8 * s * h, 1),
        // MLP up-projection.
        Op::gemm("fc1", seq, mlp, hidden, 1),
        // GELU on the expanded activations.
        Op::non_gemm("gelu", OpKind::Gelu, s * m * d, s * m * d, 10 * s * m, 1),
        // MLP down-projection.
        Op::gemm("fc2", seq, hidden, mlp, 1),
        // Residual 2.
        Op::non_gemm(
            "residual2",
            OpKind::Residual,
            2 * s * h * d,
            s * h * d,
            s * h,
            1,
        ),
    ]
}

/// The operators of the **embedding stage**: patch projection GEMM plus
/// the positional-embedding add.
pub fn vit_embed_ops(model: VitModel) -> Vec<Op> {
    let s = u64::from(model.seq_len());
    let h = u64::from(model.hidden());
    let d = 4u64;
    vec![
        // 196 patches × hidden, reduced over the flattened patch.
        Op::gemm(
            "patch_embed",
            model.seq_len() - 1,
            model.hidden(),
            model.patch_dim(),
            1,
        ),
        // Positional embedding + CLS concat: one streaming add over S×H.
        Op::non_gemm(
            "pos_embed",
            OpKind::Residual,
            2 * s * h * d,
            s * h * d,
            s * h,
            1,
        ),
    ]
}

/// The operators of the **classification head**: final LayerNorm and the
/// CLS-token classifier GEMM.
pub fn vit_head_ops(model: VitModel) -> Vec<Op> {
    let s = u64::from(model.seq_len());
    let h = u64::from(model.hidden());
    let d = 4u64;
    vec![
        Op::non_gemm(
            "ln_f",
            OpKind::LayerNorm,
            s * h * d,
            s * h * d,
            8 * s * h,
            1,
        ),
        // Only the CLS token reaches the classifier: a 1×classes GEMM.
        Op::gemm("head", 1, model.num_classes(), model.hidden(), 1),
    ]
}

/// The **entire** ViT inference graph: embedding, `model.layers()`
/// encoder layers, and the classification head, in execution order.
///
/// Layer ops are repeated per layer with `layerN.` name prefixes, so a
/// simulator replays the real job sequence rather than scaling one layer.
///
/// ```
/// use accesys_workload::{vit_full_ops, VitModel};
///
/// let ops = vit_full_ops(VitModel::Base);
/// // 2 embed + 12 layers × 12 ops + 2 head.
/// assert_eq!(ops.len(), 2 + 12 * 12 + 2);
/// ```
pub fn vit_full_ops(model: VitModel) -> Vec<Op> {
    let mut ops = vit_embed_ops(model);
    let layer = vit_ops(model);
    for l in 0..model.layers() {
        for op in &layer {
            let mut op = op.clone();
            op.name = format!("layer{l}.{}", op.name);
            ops.push(op);
        }
    }
    ops.extend(vit_head_ops(model));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_dimensions_match_the_paper() {
        assert_eq!(VitModel::Base.hidden(), 768);
        assert_eq!(VitModel::Large.hidden(), 1024);
        assert_eq!(VitModel::Huge.hidden(), 1280);
        assert_eq!(VitModel::Base.heads(), 12);
        assert_eq!(VitModel::Large.heads(), 16);
        assert_eq!(VitModel::Huge.heads(), 16);
        for m in VitModel::ALL {
            assert_eq!(m.hidden() % m.heads(), 0);
        }
    }

    #[test]
    fn layer_has_both_gemm_and_non_gemm() {
        for model in VitModel::ALL {
            let ops = vit_ops(model);
            let gemms = ops.iter().filter(|o| o.kind.is_gemm()).count();
            let non = ops.iter().filter(|o| !o.kind.is_gemm()).count();
            assert_eq!(gemms, 6, "{model}: qkv, scores, attnv, proj, fc1, fc2");
            assert_eq!(non, 6, "{model}: 2 LN, softmax, gelu, 2 residual");
        }
    }

    #[test]
    fn mac_counts_scale_with_model_size() {
        let macs = |m: VitModel| -> u64 { vit_ops(m).iter().map(|o| o.total_macs()).sum() };
        let base = macs(VitModel::Base);
        let large = macs(VitModel::Large);
        let huge = macs(VitModel::Huge);
        assert!(base < large && large < huge);
        // ViT-Base layer ≈ S*(3H² + H² + H² ... + 8H²) + attention: sanity
        // band around the analytic 1.45 GMAC.
        assert!((1_300..=1_600).contains(&(base / 1_000_000)), "{base}");
    }

    #[test]
    fn attention_ops_scale_with_heads() {
        let ops = vit_ops(VitModel::Base);
        let scores = ops.iter().find(|o| o.name == "scores").unwrap();
        assert_eq!(scores.count, 12);
        let g = scores.gemm.unwrap();
        assert_eq!((g.m, g.n, g.k), (197, 197, 64));
    }

    #[test]
    fn non_gemm_bytes_are_nonzero_and_softmax_dominated() {
        let ops = vit_ops(VitModel::Large);
        let softmax = ops.iter().find(|o| o.name == "softmax").unwrap();
        let ln = ops.iter().find(|o| o.name == "ln1").unwrap();
        assert!(softmax.total_bytes() > ln.total_bytes());
    }

    #[test]
    fn param_counts_match_published_models() {
        // ViT-B/16 86.6M and ViT-L/16 304.3M at 224×224 are exact; the
        // published ViT-H figure (632M) uses 14×14 patches, so with this
        // crate's fixed 16×16 patching Huge lands within a few percent.
        assert_eq!(VitModel::Base.param_count() / 1_000_000, 86);
        assert_eq!(VitModel::Large.param_count() / 1_000_000, 304);
        let huge = VitModel::Huge.param_count() / 1_000_000;
        assert!((610..=650).contains(&huge), "huge {huge}M");
    }

    #[test]
    fn op_totals_saturate_instead_of_wrapping() {
        // A synthetic mega-op right at the u64 boundary: 2^32-row cube
        // GEMM ≈ 2^96 MACs per instance — any multiply by count would
        // wrap. The totals must clamp to u64::MAX, not wrap to a small
        // (plausible-looking) number.
        let huge = Op::gemm("mega", u32::MAX, u32::MAX, u32::MAX, u32::MAX);
        assert_eq!(huge.total_macs(), u64::MAX);
        // Exactly at the boundary: macs * count == u64::MAX stays exact…
        let exact = Op {
            gemm: Some(GemmSpec::new(1, 1, 1)),
            ..Op::gemm("unit", 1, 1, 1, 1)
        };
        assert_eq!(exact.total_macs(), 1);
        // …and one step past it saturates.
        let bytes = Op::non_gemm("mega-bytes", OpKind::Softmax, u64::MAX, 1, 0, 1);
        assert_eq!(bytes.total_bytes(), u64::MAX);
        let count_wrap = Op::non_gemm("count-wrap", OpKind::Gelu, 1 << 62, 1 << 62, 0, 4);
        assert_eq!(count_wrap.total_bytes(), u64::MAX);
    }

    #[test]
    fn full_graph_has_embed_layers_and_head() {
        for model in VitModel::ALL {
            let ops = vit_full_ops(model);
            let expect = 2 + model.layers() as usize * 12 + 2;
            assert_eq!(ops.len(), expect, "{model}");
            assert_eq!(ops[0].name, "patch_embed");
            assert_eq!(ops.last().unwrap().name, "head");
            assert!(ops.iter().any(|o| o.name == "layer0.qkv"));
            assert!(ops
                .iter()
                .any(|o| o.name == format!("layer{}.fc2", model.layers() - 1)));
        }
    }

    #[test]
    fn full_graph_macs_exceed_layer_macs_by_layer_count() {
        let model = VitModel::Base;
        let layer: u64 = vit_ops(model).iter().map(|o| o.total_macs()).sum();
        let full: u64 = vit_full_ops(model).iter().map(|o| o.total_macs()).sum();
        assert!(full > u64::from(model.layers()) * layer);
        assert!(full < u64::from(model.layers() + 1) * layer);
    }

    #[test]
    fn embed_gemm_covers_all_patches() {
        let ops = vit_embed_ops(VitModel::Base);
        let g = ops[0].gemm.unwrap();
        assert_eq!((g.m, g.n, g.k), (196, 768, 768));
    }

    #[test]
    fn head_gemm_is_cls_only() {
        let ops = vit_head_ops(VitModel::Huge);
        let g = ops[1].gemm.unwrap();
        assert_eq!((g.m, g.n, g.k), (1, 1000, 1280));
    }
}
