//! Experiment harness for the spECK reproduction.
//!
//! `run_all_experiments` regenerates every table and figure of the paper
//! (one [`experiments`] module each), built on:
//!
//! * [`corpus`] — the synthetic benchmark corpus standing in for the
//!   SuiteSparse collection.
//! * [`runner`] — runs every method on a multiplication, validates the
//!   results, and records simulated time and memory.
//! * [`summary`] — the aggregate statistics of paper Table 3.
//! * [`out`] — plain-text table and CSV emission under `bench/out/`.
//! * [`cli`] — the flag-parsing helper shared by the binaries.

#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod out;
pub mod runner;
pub mod summary;
