package lasmq_test

import (
	"context"
	"math"
	"testing"
	"time"

	"lasmq"
)

func TestPublicAPIGeo(t *testing.T) {
	specs := []lasmq.GeoJob{
		{ID: 1, Name: "q", Priority: 1, Tasks: []lasmq.GeoTask{
			{Compute: 5, DataSite: 0, DataSize: 1},
			{Compute: 5, DataSite: 1, DataSize: 1},
		}},
	}
	cfg := lasmq.DefaultGeoConfig()
	cfg.BandwidthSigma = 0
	res, err := lasmq.RunGeo(specs, lasmq.NewFair(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Jobs[0].ResponseTime-5) > 1e-9 {
		t.Errorf("response = %v, want 5 (both tasks local and parallel)", res.Jobs[0].ResponseTime)
	}
	if res.Placement != lasmq.GeoPlaceLocalityAware {
		t.Errorf("placement = %v", res.Placement)
	}
}

func TestPublicAPIAdaptiveScheduler(t *testing.T) {
	s, err := lasmq.NewAdaptiveScheduler(lasmq.DefaultAdaptiveSchedulerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "LAS_MQ_ADAPTIVE" {
		t.Errorf("Name = %q", s.Name())
	}
	if len(s.Thresholds()) != 9 {
		t.Errorf("thresholds = %v", s.Thresholds())
	}
}

func TestPublicAPILiveCluster(t *testing.T) {
	cfg := lasmq.DefaultLiveClusterConfig()
	cfg.Nodes = 2
	cfg.ContainersPerNode = 4
	cfg.TimeScale = time.Millisecond
	cfg.HeartbeatInterval = 2 * time.Millisecond

	mq, err := lasmq.NewScheduler(lasmq.DefaultSchedulerConfig())
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := lasmq.NewLiveCluster(cfg, mq)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Shutdown()

	spec := lasmq.JobSpec{
		ID: 1, Name: "live", Priority: 1,
		Stages: []lasmq.StageSpec{{Name: "map", Tasks: []lasmq.TaskSpec{
			{Duration: 5, Containers: 1}, {Duration: 5, Containers: 1},
		}}},
	}
	if err := cluster.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	reports, err := cluster.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Response < 5 {
		t.Errorf("reports = %+v", reports)
	}
}

func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}
