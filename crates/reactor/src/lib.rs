//! **gnnmls-reactor** — a zero-dependency readiness-driven event loop
//! core for the GNN-MLS serve tier.
//!
//! The serve daemon and the cluster front used to run one OS thread per
//! connection with blocking reads: slow clients pinned threads and the
//! stall-timeout machinery existed only to paper over that. This crate
//! provides the primitives a single-threaded reactor needs so the I/O
//! plane scales to tens of thousands of connections while the worker
//! pool stays unchanged behind the job queue:
//!
//! - [`Poller`] — level-triggered readiness over `epoll` on Linux with
//!   a portable `poll(2)` fallback on other Unixes. Both backends are
//!   raw `extern "C"` declarations against the libc that `std` already
//!   links, keeping the workspace's zero-dependency stance.
//! - [`FrameDecoder`] / [`WriteQueue`] — incremental, partial-read /
//!   partial-write safe state machines for the serve wire format
//!   (1 version byte + 4-byte big-endian length + payload). The
//!   decoder refuses a foreign version the moment byte 0 lands and an
//!   oversized frame the moment the header completes — it never
//!   buffers an attacker-controlled length.
//! - [`TimerWheel`] — a hashed timer wheel with slot-granularity
//!   coalescing. Stall deadlines, drain-refusal grace periods, retry
//!   backoffs and forward deadlines all live here instead of in
//!   per-connection threads.
//! - [`Waker`] — a self-pipe (socketpair) waker so worker threads can
//!   hand completed responses back to the loop.
//! - [`net`] — nonblocking `connect` (for backend forwards multiplexed
//!   on the same loop) and an `RLIMIT_NOFILE` raiser for high-
//!   concurrency soaks.
//!
//! Everything here is transport-layer only: the crate moves bytes and
//! deadlines, it never parses JSON or knows what a request is. The
//! serve crate layers protocol semantics (typed errors, admission,
//! forwarding) on top.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

#[cfg(not(unix))]
compile_error!("gnnmls-reactor supports Unix targets only (epoll on Linux, poll elsewhere)");

mod frame;
pub mod net;
mod poller;
mod timer;
mod waker;

pub use frame::{encode_frame, DecodeError, FrameDecoder, WriteQueue, FRAME_HEADER_LEN};
pub use poller::{Event, Interest, Poller};
pub use timer::TimerWheel;
pub use waker::{wake_pair, WakeReceiver, Waker};
