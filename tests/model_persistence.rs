//! Round-trip integration of the model persistence path: a production
//! deployment trains once (`train_model` binary), ships the `.model` file,
//! and the runtime loads it — selections must be identical to the
//! in-memory model's.

use dopia::prelude::*;

#[test]
fn persisted_models_reproduce_selections() {
    let engine = Engine::kaveri();
    let (dataset, records) = training::tiny_training_set(&engine);
    let space = config_space(&engine.platform);
    let dir = std::env::temp_dir().join("dopia_persist_test");
    std::fs::create_dir_all(&dir).unwrap();

    for kind in [ModelKind::Lin, ModelKind::Dt, ModelKind::Rf, ModelKind::Svr] {
        let (_, text) = ml::io::train_serialized(kind, &dataset, 7);
        let path = dir.join(format!("{}.model", kind.label()));
        std::fs::write(&path, &text).unwrap();

        let original = PerfModel::from_regressor(kind, ml::io::from_string(&text).unwrap().1);
        let loaded = PerfModel::load(&path).unwrap();
        assert_eq!(loaded.kind(), kind);

        for record in records.iter().take(10) {
            let a = original.select_config(
                record.code,
                record.work_dim,
                record.global_size,
                record.local_size,
                &space,
            );
            let b = loaded.select_config(
                record.code,
                record.work_dim,
                record.global_size,
                record.local_size,
                &space,
            );
            assert_eq!(a.index, b.index, "{} diverged on {}", kind.label(), record.name);
        }
    }
}

#[test]
fn loaded_model_drives_the_runtime() {
    let engine = Engine::kaveri();
    let (dataset, _) = training::tiny_training_set(&engine);
    let dir = std::env::temp_dir().join("dopia_persist_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dt.model");
    let (_, text) = ml::io::train_serialized(ModelKind::Dt, &dataset, 7);
    std::fs::write(&path, text).unwrap();

    let dopia = Dopia::new(engine, PerfModel::load(&path).unwrap());
    let program = dopia
        .create_program_with_source(workloads::polybench::GESUMMV_SRC)
        .unwrap();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 4096, 256);
    let run = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mem)
        .unwrap();
    assert_eq!(run.report.cpu_groups + run.report.gpu_groups, built.nd.num_groups());
}
