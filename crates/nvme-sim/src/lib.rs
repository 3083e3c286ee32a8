//! # nvme-sim — NVMe protocol and SSD device model
//!
//! This crate is the storage substrate of the AGILE reproduction. It models:
//!
//! * the NVMe I/O command set subset the paper exercises (4 KiB-page reads and
//!   writes) with protocol-faithful submission/completion queue rings,
//!   command identifiers, phase bits and doorbell registers ([`spec`],
//!   [`queue`], [`doorbell`]),
//! * an SSD device with a channel-parallel flash back-end whose saturation
//!   bandwidth matches the devices used in the paper (≈3.7 GB/s 4 KiB random
//!   read, ≈2.2 GB/s random write per SSD) and whose completions are delivered
//!   through a discrete-event wheel ([`device`]),
//! * the page *content* model: pages are represented by 64-bit
//!   [`PageToken`]s so terabyte-scale address spaces can be simulated without
//!   materialising 4 KiB buffers, while an optional byte-level backing
//!   ([`backing::MemBacking`]) provides full-fidelity payloads for small
//!   correctness tests ([`backing`]), and
//! * the multi-SSD storage topology ([`topology`]): a [`ShardedArray`] whose
//!   devices are partitioned into lock shards (one by default, the paper's
//!   single-lock array) behind one page-striping layer.
//!
//! The GPU-side libraries (`agile-core`, `bam-baseline`) share the queue rings
//! with the device through `Arc`s, exactly as the real system shares them
//! through GPU HBM exposed over PCIe BARs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backing;
pub mod device;
pub mod doorbell;
pub mod queue;
pub mod spec;
pub mod topology;

pub use backing::{MemBacking, PageBacking, SyntheticBacking, ZeroBacking};
pub use device::{DeviceStats, SsdConfig, SsdDevice};
pub use doorbell::DoorbellRegister;
pub use queue::{CompletionQueue, QueuePair, SubmissionQueue};
pub use spec::{
    CmdStatus, CommandId, DmaHandle, Lba, NvmeCommand, NvmeCompletion, Opcode, PageToken, QueueId,
};
pub use topology::{DeviceSet, PageLocation, Placement, ShardedArray, TopologyLock};
