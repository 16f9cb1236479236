//! # accesys-workload
//!
//! Workload generators for the Gem5-AcceSys reproduction:
//!
//! * [`GemmSpec`] — the general matrix-multiplication kernels the paper
//!   sweeps (Figs. 2–6, Table IV), with reproducible operand generation
//!   and the Table IV memory-footprint arithmetic (3·n²·4 bytes).
//! * [`VitModel`] / [`vit_ops`] — Vision Transformer inference graphs
//!   (base / large / huge: hidden 768/1024/1280, 12/16 heads) decomposed
//!   into GEMM operators (offloaded to the accelerator) and Non-GEMM
//!   operators (LayerNorm, Softmax, GELU, residual — run on the CPU),
//!   the split behind the paper's Figs. 7–9.
//! * [`graph`] — the task-graph IR: typed tasks with explicit dependency
//!   edges and per-task device affinity, plus the lowerings from the
//!   flat operator lists (chains, fork-join sharding, pipelined
//!   multi-device inference, head-parallel attention, tenant mixes).
//! * [`llm`] — the autoregressive family: prefill fork-joins, skinny
//!   per-token decode chains, a [`llm::KvCache`] capacity model whose
//!   pressure lowers to host-memory transfers, speculative-decode
//!   fork-verify and MoE token-routing shapes.
#![warn(missing_docs)]

mod bert;
mod gemm;
pub mod graph;
pub mod llm;
mod vit;

pub use bert::{bert_ops, BertModel};
pub use gemm::GemmSpec;
pub use vit::{
    encoder_ops, vit_embed_ops, vit_full_ops, vit_head_ops, vit_ops, Op, OpKind, VitModel,
};
