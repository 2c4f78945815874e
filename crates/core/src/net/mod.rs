//! Network serving: the GraphPi wire protocol, the blocking TCP server,
//! and the client library.
//!
//! The engine's [`Session`](crate::engine::Session) serves warm concurrent
//! queries to in-process callers; this module puts that session behind a
//! socket. [`protocol`] defines the length-prefixed binary frame format
//! and the [`Transport`] seam, [`server`] owns the
//! accept loop, admission control, overload shedding, deadlines and
//! graceful drain, [`client`] is the one synchronous request/response
//! [`Client`] — a single connection, or a [`RetryPolicy`] over one or
//! more endpoints — the CLI's `remote` subcommand and the network test
//! suites are built on, and [`chaos`] is the seeded fault-injection
//! harness that proves the rest of it honest.
//!
//! The full frame layout, opcode list and error-code table are documented
//! in `docs/protocol.md`.
//!
//! ```no_run
//! use graphpi_core::config::ServeOptions;
//! use graphpi_core::engine::GraphPi;
//! use graphpi_core::net::{Client, Server};
//! use graphpi_graph::generators;
//! use graphpi_pattern::prefab;
//!
//! let engine = GraphPi::new(generators::power_law(300, 5, 7));
//! let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.serve(&engine).unwrap());
//!     let mut client = Client::connect(addr).unwrap();
//!     let houses = client.count(&prefab::house()).unwrap();
//!     println!("{} houses", houses.count);
//!     client.shutdown_server().unwrap();
//! });
//! ```

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod replica;
pub mod server;

pub use chaos::{ChaosConfig, ChaosConnector, ChaosProxy};
pub use client::{
    Client, ClientCounters, RemoteCount, RemoteCountOptions, RemoteEnumerateOptions,
    RemoteUpdateOptions, RetryPolicy,
};
pub use protocol::{
    CountExt, ErrorCode, HealthState, NetError, QueryMode, ReplRole, StatsOk, TcpTransport,
    Transport, UpdateOk,
};
pub use replica::run_replication;
pub use server::{ReplState, Server, ServerHandle, ServerReport};
