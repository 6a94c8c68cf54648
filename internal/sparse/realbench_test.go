package sparse_test

import (
	"fmt"
	"math"
	"testing"

	"regenrand/internal/raid"
	"regenrand/internal/sparse"
)

// BenchmarkKernelRealAB times the fused step kernel against the retained
// scalar reference on the real G=20 RAID DTMC, interleaved in one process so
// machine noise hits both variants equally.
func BenchmarkKernelRealAB(b *testing.B) {
	m, err := raid.Build(raid.DefaultParams(20), false)
	if err != nil {
		b.Fatal(err)
	}
	d, err := m.Chain.Uniformize(1)
	if err != nil {
		b.Fatal(err)
	}
	rewards := m.UnavailabilityRewards()
	src := m.Chain.Initial()
	dst := make([]float64, m.Chain.N())
	zero := []int32{int32(m.Pristine)}
	zeroVals := make([]float64, 1)
	mat := d.P
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.StepFused(dst, src, rewards, zero, zeroVals)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.StepFusedRef(dst, src, rewards, zero, zeroVals)
		}
	})
	b.Run("gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.VecMat(dst, src)
		}
	})
	b.Run("gather-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.VecMatRef(dst, src)
		}
	})
}

// BenchmarkReplayKernels is the standing A/B of the two retained-vector
// replay kernels on the real G=20 RAID DTMC: RewardDotFusedBatch against a
// one-lane RewardDotMulti (the single-binding replay), and four
// RewardDotFusedBatch calls against one four-lane RewardDotMulti (a grouped
// replay). The retained vectors are K consecutive steps of the chain from
// the pristine state (mass-conserving, so no denormals); the replay skips
// the pristine destination as a regenerative replay does. Both kernels must
// agree bit for bit before anything is timed.
func BenchmarkReplayKernels(b *testing.B) {
	m, err := raid.Build(raid.DefaultParams(20), false)
	if err != nil {
		b.Fatal(err)
	}
	d, err := m.Chain.Uniformize(1)
	if err != nil {
		b.Fatal(err)
	}
	mat := d.P
	n := m.Chain.N()
	zero := []int32{int32(m.Pristine)}
	avail := make([]float64, n)
	for i := range avail {
		avail[i] = 1
	}
	rewardsList := [][]float64{m.UnavailabilityRewards(), m.ThroughputRewards(), m.UnreliabilityRewards(), avail}
	for i, rw := range rewardsList {
		for j := range rw {
			// Distinct lanes, no all-zero ones: the replay cost must not
			// depend on the reward values, but equality must be exercised.
			rewardsList[i][j] = rw[j] + float64(i+1)/float64(j+2)
		}
	}
	for _, K := range []int{64, 400} {
		xs := make([][]float64, K)
		u := make([]float64, n)
		u[m.Pristine] = 1
		for k := range xs {
			xs[k] = make([]float64, n)
			mat.StepFused(xs[k], u, nil, nil, nil)
			u = xs[k]
		}
		outs := make([][]float64, len(rewardsList))
		want := make([][]float64, len(rewardsList))
		for r, rw := range rewardsList {
			outs[r] = make([]float64, K)
			want[r] = make([]float64, K)
			mat.RewardDotFusedBatch(xs, rw, zero, want[r])
		}
		sparse.RewardDotMulti(mat, xs, rewardsList, zero, outs)
		for r := range outs {
			for k := range outs[r] {
				if math.Float64bits(outs[r][k]) != math.Float64bits(want[r][k]) {
					b.Fatalf("K=%d lane %d vector %d: RewardDotMulti %v != RewardDotFusedBatch %v", K, r, k, outs[r][k], want[r][k])
				}
			}
		}
		b.Run(fmt.Sprintf("K=%d/R=1/fused-batch", K), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.RewardDotFusedBatch(xs, rewardsList[0], zero, outs[0])
			}
		})
		b.Run(fmt.Sprintf("K=%d/R=1/multi", K), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.RewardDotMulti(mat, xs, rewardsList[:1], zero, outs[:1])
			}
		})
		b.Run(fmt.Sprintf("K=%d/R=4/fused-batch-x4", K), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r, rw := range rewardsList {
					mat.RewardDotFusedBatch(xs, rw, zero, outs[r])
				}
			}
		})
		b.Run(fmt.Sprintf("K=%d/R=4/multi", K), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.RewardDotMulti(mat, xs, rewardsList, zero, outs)
			}
		})
	}
}
