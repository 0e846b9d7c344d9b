//! Forward-solver choice ablation: the paper picks BiCGStab (Section III-A);
//! this harness compares it against restarted GMRES and the block-Jacobi
//! preconditioned variant across scattering strengths, counting what
//! actually matters — MLFMA multiplications per solve.

use ffw_bench::{print_table, write_json, Args};
use ffw_geometry::{Domain, Point2, QuadTree};
use ffw_greens::{incident_plane_wave, tree_positions, Kernel};
use ffw_inverse::{LeafBlockJacobi, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::C64;
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use ffw_solver::{bicgstab, gmres, solve_lockstep, IterConfig, LockstepOptions, ScatteringOp};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    contrast: f64,
    solver: String,
    matvecs: usize,
    iterations: usize,
    converged: bool,
}

fn main() {
    let args = Args::parse();
    let px = if args.quick { 32 } else { 64 };
    let domain = Domain::new(px, 1.0);
    let tree = QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let engine = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(Pool::global().n_threads())),
    )));
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let pos = tree_positions(&domain, &tree);
    let phi_inc = incident_plane_wave(&kernel, 0.3, &pos);
    let cfg = IterConfig {
        tol: 1e-4, // the paper's forward tolerance
        max_iters: 5000,
    };

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for contrast in [0.02, 0.1, 0.3, 0.6] {
        let cyl = Cylinder {
            center: Point2::ZERO,
            radius: 0.3 * domain.side(),
            contrast,
        };
        let object = object_from_contrast(&domain, &tree, &cyl.rasterize(&domain));
        let a = ScatteringOp::new(&engine, &object);
        let n = object.len();

        let mut x = vec![C64::ZERO; n];
        let s_bicgs = bicgstab(&a, &phi_inc, &mut x, cfg); // lint:backend-ok microbench compares raw solvers

        let m = LeafBlockJacobi::new(&plan, &object);
        let pre = LockstepOptions {
            precond: Some(&m),
            ..LockstepOptions::default()
        };
        let mut xs = vec![vec![C64::ZERO; n]];
        let Ok(mut cols) = solve_lockstep(&a, &[&phi_inc], &mut xs, cfg, &pre);
        let s_pre = cols.remove(0).stats;

        let mut x = vec![C64::ZERO; n];
        let s_gmres = gmres(&a, &phi_inc, &mut x, 30, cfg);

        for (name, s) in [
            ("BiCGStab (paper)", &s_bicgs),
            ("BiCGStab + block-Jacobi", &s_pre),
            ("GMRES(30)", &s_gmres),
        ] {
            rows.push(vec![
                format!("{contrast}"),
                name.to_string(),
                s.matvecs.to_string(),
                s.iterations.to_string(),
                if s.converged { "yes" } else { "NO" }.to_string(),
            ]);
            records.push(Row {
                contrast,
                solver: name.to_string(),
                matvecs: s.matvecs,
                iterations: s.iterations,
                converged: s.converged,
            });
        }
    }
    print_table(
        &format!("forward-solver ablation ({px}x{px} px, cylinder, tol 1e-4)"),
        &[
            "contrast",
            "solver",
            "MLFMA mults",
            "iterations",
            "converged",
        ],
        &rows,
    );
    println!("the paper's BiCGStab choice trades monotonicity for 2 matvecs/iteration and");
    println!("O(1) vector storage; block-Jacobi (Section VIII future work) pays off as the");
    println!("contrast — and with it the system's departure from identity — grows.");
    write_json("solvers", &records).expect("write results");
}
