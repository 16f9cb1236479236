//! BERT-style NLP encoder workloads.
//!
//! The paper motivates Gem5-AcceSys with "ML and NLP" transformers and
//! cites BERT; its evaluation uses ViT. The encoder layer is the same
//! computation — only the sequence length and the embedding stage differ
//! — so this module reuses the ViT operator construction with BERT
//! dimensions, demonstrating the workload generator's generality.

use crate::{Op, VitModel};

/// BERT variants (Devlin et al., NAACL 2019).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub enum BertModel {
    /// BERT-Base: 12 layers, hidden 768, 12 heads.
    Base,
    /// BERT-Large: 24 layers, hidden 1024, 16 heads.
    Large,
}

impl BertModel {
    /// Both published variants.
    pub const ALL: [BertModel; 2] = [BertModel::Base, BertModel::Large];

    /// Hidden dimension.
    pub fn hidden(self) -> u32 {
        match self {
            BertModel::Base => 768,
            BertModel::Large => 1024,
        }
    }

    /// Encoder layers.
    pub fn layers(self) -> u32 {
        match self {
            BertModel::Base => 12,
            BertModel::Large => 24,
        }
    }

    /// Attention heads.
    pub fn heads(self) -> u32 {
        match self {
            BertModel::Base => 12,
            BertModel::Large => 16,
        }
    }

    /// The ViT variant with the same encoder dimensions (BERT-Base and
    /// ViT-Base share hidden/heads/layers exactly; likewise Large).
    fn encoder_twin(self) -> VitModel {
        match self {
            BertModel::Base => VitModel::Base,
            BertModel::Large => VitModel::Large,
        }
    }
}

impl std::fmt::Display for BertModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BertModel::Base => "BERT-Base",
            BertModel::Large => "BERT-Large",
        };
        f.write_str(s)
    }
}

/// The operators of one BERT encoder layer at sequence length `seq_len`.
///
/// Structure is identical to a ViT layer (fused QKV, per-head attention,
/// projection, 4× MLP, two LayerNorms, softmax, GELU, residuals); only
/// the token count changes, so attention cost scales quadratically with
/// `seq_len` while the MLP scales linearly — the trade the NonGEMM-bench
/// literature highlights for NLP inputs.
///
/// ```
/// use accesys_workload::{bert_ops, BertModel, OpKind};
///
/// let ops = bert_ops(BertModel::Base, 128);
/// assert_eq!(ops.iter().filter(|o| o.kind == OpKind::Gemm).count(), 6);
/// ```
pub fn bert_ops(model: BertModel, seq_len: u32) -> Vec<Op> {
    assert!(seq_len > 0, "sequence length must be positive");
    let twin = model.encoder_twin();
    crate::vit::encoder_layer_ops(seq_len, twin.hidden(), twin.heads(), twin.mlp_dim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vit_ops;

    #[test]
    fn bert_base_layer_matches_vit_base_at_vit_sequence_length() {
        // Same hidden/heads ⇒ the op graphs coincide when seq matches.
        let bert = bert_ops(BertModel::Base, 197);
        let vit = vit_ops(crate::VitModel::Base);
        assert_eq!(bert.len(), vit.len());
        for (b, v) in bert.iter().zip(&vit) {
            assert_eq!(b.name, v.name);
            assert_eq!(
                b.gemm.map(|g| (g.m, g.n, g.k)),
                v.gemm.map(|g| (g.m, g.n, g.k))
            );
            assert_eq!(b.total_bytes(), v.total_bytes());
        }
    }

    #[test]
    fn attention_cost_is_quadratic_in_sequence_length() {
        let macs_at = |s: u32| -> u64 {
            bert_ops(BertModel::Base, s)
                .iter()
                .filter(|o| o.name == "scores" || o.name == "attnv")
                .map(|o| o.total_macs())
                .sum()
        };
        let at128 = macs_at(128);
        let at512 = macs_at(512);
        // 4× tokens → 16× attention MACs.
        assert_eq!(at512, 16 * at128);
        // While the MLP only grows 4×.
        let mlp = |s: u32| -> u64 {
            bert_ops(BertModel::Base, s)
                .iter()
                .filter(|o| o.name.starts_with("fc"))
                .map(|o| o.total_macs())
                .sum()
        };
        assert_eq!(mlp(512), 4 * mlp(128));
    }

    #[test]
    fn large_model_dimensions_match_the_paper_citation() {
        assert_eq!(BertModel::Large.hidden(), 1024);
        assert_eq!(BertModel::Large.layers(), 24);
        assert_eq!(BertModel::Large.heads(), 16);
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn zero_sequence_rejected() {
        bert_ops(BertModel::Base, 0);
    }
}
