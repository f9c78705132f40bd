pub mod cli;
pub mod solver;
